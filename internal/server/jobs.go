// Async job endpoints: POST /v1/jobs submits a batch and returns a
// handle immediately; GET /v1/jobs/{id}?cursor=N long-polls for results
// past the cursor; GET /v1/jobs/{id}/stream pushes them as NDJSON in
// strict index order; DELETE /v1/jobs/{id} cancels. The per-unit result
// bytes are exactly the elements of the /v1/batch results array for the
// same body — `{"results":[` + join(stream lines, ",") + `]}` + "\n"
// reconstructs the batch response byte for byte. See docs/jobs.md.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"idemproc/internal/jobs"
)

// SubmitResponse is the POST /v1/jobs body.
type SubmitResponse struct {
	ID    string `json:"id"`
	Units int    `json:"units"`
	State string `json:"state"`
}

// CancelResponse is the DELETE /v1/jobs/{id} body.
type CancelResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// runJobUnit executes one journaled unit through runUnit, the runner
// /v1/batch uses, so job results are byte-identical to batch results.
// The unit bytes were strictly validated at submit; a re-parse here
// cannot fail, but the defensive branch keeps a unit error inside its
// own slot regardless.
func (s *Server) runJobUnit(ctx context.Context, unit json.RawMessage, index int) []byte {
	res := BatchResult{Index: index}
	var u BatchUnit
	if err := json.Unmarshal(unit, &u); err != nil {
		res.Error = fmt.Sprintf("invalid unit: %v", err)
	} else {
		res = s.runUnit(ctx, u, index)
	}
	b, err := json.Marshal(res)
	if err != nil {
		// Unreachable for these fixed structs; keep the slot well-formed.
		b, _ = json.Marshal(BatchResult{Index: index, Error: "result encoding failed"})
	}
	return b
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	// The raw body is read up front: it is both the validation input and
	// the journal payload (recovery re-derives the units from it).
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeHTTPErr(w, &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes)})
			return
		}
		writeHTTPErr(w, badRequest("reading body: %v", err))
		return
	}
	var req BatchRequest
	if he := decodeJSONBytes(body, &req); he != nil {
		writeHTTPErr(w, he)
		return
	}
	if he := s.validateBatch(&req); he != nil {
		writeHTTPErr(w, he)
		return
	}
	// Second parse extracts the units as raw bytes: the runner hands
	// each unit's original text to the same decode path /v1/batch uses.
	var raw struct {
		Units []json.RawMessage `json:"units"`
	}
	if err := json.Unmarshal(body, &raw); err != nil || len(raw.Units) != len(req.Units) {
		writeHTTPErr(w, badRequest("invalid JSON body"))
		return
	}

	j, err := s.jobs.Submit(body, raw.Units)
	if err != nil {
		if errors.Is(err, jobs.ErrTableFull) || errors.Is(err, jobs.ErrClosed) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err.Error())
			return
		}
		writeHTTPErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SubmitResponse{ID: j.ID(), Units: j.Units(), State: j.State().String()})
}

// jobFromRequest resolves {id} or writes the canonical 404.
func (s *Server) jobFromRequest(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
	}
	return j, ok
}

// parseCursor validates ?cursor=N against [0, units].
func parseCursor(r *http.Request, units int) (int, *httpError) {
	q := r.URL.Query().Get("cursor")
	if q == "" {
		return 0, nil
	}
	c, err := strconv.Atoi(q)
	if err != nil || c < 0 || c > units {
		return 0, badRequest("cursor must be an integer in [0, %d]", units)
	}
	return c, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromRequest(w, r)
	if !ok {
		return
	}
	if r.Method == http.MethodDelete {
		j, _ = s.jobs.Cancel(j.ID())
		writeJSON(w, http.StatusOK, CancelResponse{ID: j.ID(), State: j.State().String()})
		return
	}

	cursor, he := parseCursor(r, j.Units())
	if he != nil {
		writeHTTPErr(w, he)
		return
	}
	var wait time.Duration
	if q := r.URL.Query().Get("wait"); q != "" {
		ms, err := strconv.Atoi(q)
		if err != nil || ms < 0 {
			writeHTTPErr(w, badRequest("wait must be a non-negative duration in milliseconds"))
			return
		}
		wait = time.Duration(ms) * time.Millisecond
		if wait > s.cfg.JobPollMax {
			wait = s.cfg.JobPollMax
		}
	}
	rep := j.Poll(r.Context(), cursor, wait)
	if n := len(rep.Results); n > 0 {
		s.metrics.Chunks.Observe(float64(n), "poll")
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromRequest(w, r)
	if !ok {
		return
	}
	cursor, he := parseCursor(r, j.Units())
	if he != nil {
		writeHTTPErr(w, he)
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// From here the status is committed; a broken stream is signaled by
	// the connection, and the client resumes with ?cursor=.
	_, _ = j.Stream(r.Context(), cursor, func(chunk [][]byte) error {
		var buf bytes.Buffer
		for _, line := range chunk {
			buf.Write(line)
			buf.WriteByte('\n')
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		s.metrics.Chunks.Observe(float64(len(chunk)), "stream")
		return nil
	})
}

// decodeJSONBytes is decodeJSON over an in-memory body: same strictness,
// same error texts.
func decodeJSONBytes(body []byte, v any) *httpError {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON body")
	}
	return nil
}
