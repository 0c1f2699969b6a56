package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/runtime"
)

// TestAppendRunResponseMatchesMarshal checks the run reply encoder
// against encoding/json byte for byte, on awkward strings and on floats
// across every exponent, and that each float decodes to its own bits.
func TestAppendRunResponseMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	strs := []string{
		"", "sort", "RollingSum", "sort/b6/w2", "baseline",
		`quote " back \ slash`, "tab\tnew\nline\rcr\bbs\fff\x00\x01\x1f\x7f",
		"<html> & </html>", "caf\u00e9 \u2028 \u2029 \U0001F600",
		"bad utf-8: \xff\xfe \xc3", "achieved accuracy 1e+09 (target 1e+09)",
	}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e21,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.MaxFloat64, 123456789.123, 2.5e-300}
	for len(floats) < 2000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
			floats = append(floats, f)
		}
	}
	for i, f := range floats {
		r := runResponse{
			Program: strs[i%len(strs)], N: rng.Intn(1 << 21), Workers: 1 + rng.Intn(64),
			Seconds: floats[(i*7)%len(floats)], Checksum: f,
			Detail: strs[(i+3)%len(strs)], Config: strs[(i+5)%len(strs)], ConfigSource: strs[(i+1)%len(strs)],
			Bucket: rng.Intn(40) - 1,
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got := appendRunResponse(nil, &r)
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("encoder differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
		var back runResponse
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(back.Checksum) != math.Float64bits(r.Checksum) || math.Float64bits(back.Seconds) != math.Float64bits(r.Seconds) {
			t.Fatalf("floats do not round-trip: %v %v -> %v %v", r.Seconds, r.Checksum, back.Seconds, back.Checksum)
		}
	}
}

// discardWriter is a ResponseWriter that keeps one header map and
// drops the body, so only the reply's own allocations count.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d discardWriter) WriteHeader(int)             {}

// TestWriteRunAllocs pins what encoding and sending one /v1/run reply
// allocates: only the Content-Type header's value, since the buffer is
// pooled (an indenting json.Encoder per reply made it 8).
func TestWriteRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings only hold without the race detector")
	}
	w := discardWriter{http.Header{}}
	r := runResponse{Program: "RollingSum", N: 64, Workers: 2, Seconds: 1.25e-5, Checksum: 123456.789,
		Config: "RollingSum/b6/w2", ConfigSource: "store", Bucket: 6}
	got := testing.AllocsPerRun(200, func() { writeRun(w, &r) })
	const ceiling = 1
	t.Logf("%.0f allocs/run (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("writeRun: %.0f allocs/run, ceiling %d", got, ceiling)
	}
}

// TestNonFiniteResultIs500: a result JSON cannot carry is a failed
// execution, answered with a 500 whose error names the value, never a
// 200 with an empty body.
func TestNonFiniteResultIs500(t *testing.T) {
	results := map[string]bench.Result{
		"infsum":  {Seconds: 0.5, Checksum: math.Inf(1)},
		"nansecs": {Seconds: math.NaN(), Checksum: 3},
	}
	srv, ts := newTestServer(t, "", func(o *Options) {
		for name, res := range results {
			res := res
			if err := o.Registry.Add(&bench.Benchmark{
				Name: name,
				Run: func(*runtime.Pool, *choice.Config, int, int64, bench.RunOpts) (bench.Result, error) {
					return res, nil
				},
				Baseline: choice.NewConfig,
			}); err != nil {
				t.Fatal(err)
			}
		}
	})
	for name, want := range map[string]string{"infsum": "checksum is +Inf", "nansecs": "seconds is NaN"} {
		failed := srv.failures.Load()
		code, body := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": name, "n": 8})
		if code != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500 (body %v)", name, code, body)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, want) {
			t.Errorf("%s: error %q does not say %q", name, msg, want)
		}
		if got := srv.failures.Load() - failed; got != 1 {
			t.Errorf("%s: %d failures counted, want 1", name, got)
		}
	}
}

// TestWriteJSONUnencodable: any reply encoding/json rejects goes out as
// a decodable 500, not as the intended status with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"cost": math.Inf(1)})
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError {
		t.Fatalf("code %d body %q (%v), want a 500 with a JSON error", rec.Code, rec.Body.String(), err)
	}
	if !strings.Contains(body["error"], "+Inf") {
		t.Errorf("error %q does not name the value", body["error"])
	}
}
