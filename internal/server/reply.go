package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Replies are encoded whole before any header goes out, so a value that
// cannot be encoded becomes a 500 naming the problem instead of the
// intended status with an empty body. Every reply is compact JSON with
// a trailing newline.

// replyBufs holds the buffers /v1/run replies are encoded into; a reply
// is a few hundred bytes, so steady state allocates none.
var replyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// writeJSON sends v as the reply with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "cannot encode reply: "+err.Error())
		return
	}
	writeBody(w, code, append(body, '\n'))
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeBody sends an encoded JSON reply.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body) // the client may be gone; there is no one left to tell
}

// writeRun sends a successful /v1/run reply, encoded in a pooled buffer.
func writeRun(w http.ResponseWriter, r *runResponse) {
	bp := replyBufs.Get().(*[]byte)
	*bp = appendRunResponse((*bp)[:0], r)
	writeBody(w, http.StatusOK, *bp)
	replyBufs.Put(bp)
}

// appendRunResponse appends r as json.Marshal encodes it, and a
// newline. Seconds and Checksum must be finite, which execute checks.
func appendRunResponse(b []byte, r *runResponse) []byte {
	b = append(b, `{"program":`...)
	b = appendString(b, r.Program)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = append(b, `,"workers":`...)
	b = strconv.AppendInt(b, int64(r.Workers), 10)
	b = append(b, `,"seconds":`...)
	b = appendFloat(b, r.Seconds)
	b = append(b, `,"checksum":`...)
	b = appendFloat(b, r.Checksum)
	if r.Detail != "" {
		b = append(b, `,"detail":`...)
		b = appendString(b, r.Detail)
	}
	b = append(b, `,"config":`...)
	b = appendString(b, r.Config)
	b = append(b, `,"config_source":`...)
	b = appendString(b, r.ConfigSource)
	b = append(b, `,"bucket":`...)
	b = strconv.AppendInt(b, int64(r.Bucket), 10)
	return append(b, "}\n"...)
}

// appendFloat appends a finite f in encoding/json's form: the shortest
// decimal that parses back to f, in exponent form only below 1e-6 or
// from 1e21 in magnitude, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 -> e-7
		b = b[:n-1]
	}
	return b
}

// appendString appends s as encoding/json writes it. The strings of a
// run reply are program and config names and a kernel's note, which
// need no escaping; one that does goes through encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
