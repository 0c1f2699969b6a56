package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"petabricks/internal/cluster"
)

// --- request forwarding -------------------------------------------------

// forwardRun relays a run request to its owner node and copies the
// owner's verdict — success, shed, or failure — back to the client.
// It reports false when the owner could not be reached at all (down,
// suspect, timed out), in which case the caller executes locally.
func (s *Server) forwardRun(w http.ResponseWriter, r *http.Request, owner string, req runRequest) bool {
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	status, respBody, err := s.cluster.Forward(r.Context(), owner, http.MethodPost, "/v1/run", body)
	if err != nil {
		if !errors.Is(err, cluster.ErrPeerUnavailable) {
			s.opts.Logf("pbserve: forward to %s failed: %v", owner, err)
		}
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(respBody)
	return true
}
