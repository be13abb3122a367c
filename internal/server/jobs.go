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
	"fmt"
	"net/http"
	"strconv"
	"time"

	"idemproc/internal/jobs"
	"idemproc/internal/metrics"
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
	// The raw body is both the validation input and the journal payload
	// (recovery re-derives the units from it).
	body, err := ReadBody(w, r)
	if err != nil {
		WriteHTTPErr(w, err)
		return
	}
	_, units, err := ParseBatch(body)
	if err != nil {
		WriteHTTPErr(w, err)
		return
	}
	j, err := s.jobs.Submit(body, units)
	if err != nil {
		WriteHTTPErr(w, err)
		return
	}
	// The state every job starts in: reading j's would race its runner,
	// and a job whose units hit the compile cache could already be done.
	writeJSON(w, http.StatusOK, SubmitResponse{ID: j.ID(), Units: j.Units(), State: jobs.StateRunning.String()})
}

// JobHandler serves GET /v1/jobs/{id}, a long-poll for the results past
// ?cursor= that parks up to ?wait= milliseconds (at most JobPollMax),
// and DELETE /v1/jobs/{id}, which cancels, from m's job table. When
// chunks is non-nil it observes each non-empty poll's result count under
// mode "poll". idemd and idemfront both serve their job tables through
// it, so the two answer every read with the same bytes.
func JobHandler(m *jobs.Manager, chunks *metrics.Histograms) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if r.Method == http.MethodDelete {
			// One lookup: a job the reaper removes between a Get and a
			// Cancel would leave nothing to answer with.
			j, ok := m.Cancel(id)
			if !ok {
				writeUnknownJob(w, id)
				return
			}
			writeJSON(w, http.StatusOK, CancelResponse{ID: j.ID(), State: j.State().String()})
			return
		}
		j, ok := m.Get(id)
		if !ok {
			writeUnknownJob(w, id)
			return
		}
		cursor, he := parseCursor(r, j.Units())
		if he != nil {
			WriteHTTPErr(w, he)
			return
		}
		var wait time.Duration
		if q := r.URL.Query().Get("wait"); q != "" {
			ms, err := strconv.Atoi(q)
			if err != nil || ms < 0 {
				WriteHTTPErr(w, badRequest("wait must be a non-negative duration in milliseconds"))
				return
			}
			// Cap before converting: a wait past time.Duration's range
			// must park like any other over-cap wait, not wrap negative.
			wait = time.Duration(min(ms, int(JobPollMax/time.Millisecond))) * time.Millisecond
		}
		rep := j.Poll(r.Context(), cursor, wait)
		if n := len(rep.Results); n > 0 && chunks != nil {
			chunks.Observe(float64(n), "poll")
		}
		writeJSON(w, http.StatusOK, rep)
	}
}

// JobStreamHandler serves GET /v1/jobs/{id}/stream from m's job table:
// NDJSON results in strict index order from ?cursor=, each chunk flushed
// as it lands. When chunks is non-nil it observes each chunk's result
// count under mode "stream".
func JobStreamHandler(m *jobs.Manager, chunks *metrics.Histograms) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		j, ok := m.Get(id)
		if !ok {
			writeUnknownJob(w, id)
			return
		}
		cursor, he := parseCursor(r, j.Units())
		if he != nil {
			WriteHTTPErr(w, he)
			return
		}
		flusher, _ := w.(http.Flusher)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		// From here the status is committed; a broken stream is signaled
		// by the connection, and the client resumes with ?cursor=.
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
			if chunks != nil {
				chunks.Observe(float64(len(chunk)), "stream")
			}
			return nil
		})
	}
}

func writeUnknownJob(w http.ResponseWriter, id string) {
	WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
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
