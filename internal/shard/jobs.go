// Front-side async jobs: POST /v1/jobs splits a batch into per-owner
// sub-jobs across the replica fleet, tracks them behind one front-side
// handle, and merges the per-replica streams back into strict index
// order — so GET /v1/jobs/{id}/stream through the front is byte-
// identical to the same job on a single replica, which in turn is
// byte-derivable from the /v1/batch response. Sub-jobs fail over
// between replicas with only the *remaining* units resubmitted; a
// replica crash mid-job costs re-execution of at most its in-flight
// units somewhere else, never a unit the front already holds.
package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"idemproc/internal/jobs"
	"idemproc/internal/server"
)

// subJobWait is the long-poll wait the mergers use against replicas.
// The replica returns early on any progress; this only bounds how long
// an idle poll parks.
const subJobWait = 15 * time.Second

// subJobSubmitTimeout bounds one sub-job submit. The submit runs on a
// context the front job's cancel does not reach (see runSubJob), so this
// is what keeps a wedged replica from holding a merger forever.
const subJobSubmitTimeout = 10 * time.Second

// handleJobSubmit implements POST /v1/jobs at the front: read, parse
// and split the body exactly like /v1/batch, mint a front-side handle
// immediately, and let one merger goroutine per sub-batch feed the
// tracked job.
func (f *Front) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	groups, total, err := f.readBatch(w, r)
	if err != nil {
		server.WriteHTTPErr(w, err)
		return
	}
	j, err := f.jobs.Track(total)
	if err != nil {
		server.WriteHTTPErr(w, err)
		return
	}
	for _, g := range groups {
		f.wg.Add(1)
		go f.runGroup(j, g)
	}
	b, _ := json.Marshal(server.SubmitResponse{ID: j.ID(), Units: total, State: jobs.StateRunning.String()})
	respond(w, http.StatusOK, append(b, '\n'))
}

// runGroup is one sub-batch's merger: submit the group's still-missing
// units to a replica as a sub-job, long-poll its cursor, rewrite each
// result's index back to the original batch position, and deliver it
// into the front job. Like route, it walks the key's ring owners once,
// healthy ones first: after a replica-side failure only the undelivered
// units go to the next owner, and once every owner has failed the whole
// front job fails (partial output would not be byte-stable).
func (f *Front) runGroup(j *jobs.Job, g *batchGroup) {
	defer f.wg.Done()
	ctx := j.Context()
	delivered := make([]bool, len(g.indices))
	var lastErr error
	for i, b := range f.candidates(f.ring.Owners(g.key)) {
		var remUnits []json.RawMessage
		var remIdx []int
		for k, d := range delivered {
			if !d {
				remUnits = append(remUnits, g.units[k])
				remIdx = append(remIdx, k)
			}
		}
		if len(remUnits) == 0 {
			return
		}
		if i > 0 {
			f.metrics.SubJobRetries.Add(1)
		}
		err := f.runSubJob(ctx, j, b, remUnits, remIdx, g.indices, delivered)
		if err == nil || ctx.Err() != nil {
			// Done, or the front job was canceled or the front is
			// draining: not a replica fault.
			return
		}
		lastErr = err
	}
	j.Fail(fmt.Sprintf("sub-batch failed on every replica: %v", lastErr))
}

// runSubJob drives one sub-job on one replica to completion: submit,
// long-poll the cursor, deliver rewritten results. A nil return means
// every remaining unit was delivered; an error means the caller should
// fail over with whatever is still missing.
func (f *Front) runSubJob(ctx context.Context, j *jobs.Job, b *backend,
	remUnits []json.RawMessage, remIdx []int, indices []int, delivered []bool) error {
	sub, err := json.Marshal(struct {
		Units []json.RawMessage `json:"units"`
	}{Units: remUnits})
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err // canceled before the submit: nothing to release
	}
	f.metrics.SubJobs.Add(1)
	// A cancel of the front job must not abort the submit: once the
	// replica has admitted the sub-job, the front needs its handle to
	// cancel it, or the replica computes it to the end. With ctx already
	// done, the first poll below fails and cancels the returned handle.
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), subJobSubmitTimeout)
	status, resp, err := f.call(sctx, http.MethodPost, b.base+"/v1/jobs", sub)
	cancel()
	if err != nil {
		if status == 0 {
			f.setHealth(b, false, "transport error")
		}
		return fmt.Errorf("submit to %s: %w", b.id, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("submit to %s: status %d: %s", b.id, status, firstLine(resp))
	}
	var sr server.SubmitResponse
	if err := json.Unmarshal(resp, &sr); err != nil || sr.Units != len(remUnits) {
		return fmt.Errorf("submit to %s: malformed handle", b.id)
	}

	cursor := 0
	for cursor < len(remUnits) {
		url := fmt.Sprintf("%s/v1/jobs/%s?cursor=%d&wait=%d",
			b.base, sr.ID, cursor, subJobWait.Milliseconds())
		status, resp, err := f.call(ctx, http.MethodGet, url, nil)
		if ctx.Err() != nil {
			// The front job went away under us; release the replica's slot.
			f.cancelSubJob(b, sr.ID)
			return nil
		}
		if err != nil {
			if status == 0 {
				f.setHealth(b, false, "transport error")
			}
			return fmt.Errorf("poll %s on %s: %w", sr.ID, b.id, err)
		}
		if status != http.StatusOK {
			// 404: the replica restarted without the journal (or reaped the
			// sub-job) — resubmit the remainder elsewhere.
			return fmt.Errorf("poll %s on %s: status %d: %s", sr.ID, b.id, status, firstLine(resp))
		}
		var rep jobs.PollResponse
		if err := json.Unmarshal(resp, &rep); err != nil {
			return fmt.Errorf("poll %s on %s: malformed response: %v", sr.ID, b.id, err)
		}
		for _, res := range rep.Results {
			if cursor >= len(remIdx) {
				return fmt.Errorf("poll %s on %s: more results than units", sr.ID, b.id)
			}
			k := remIdx[cursor]
			global := indices[k]
			rewritten, err := rewriteIndex(res, global)
			if err != nil {
				return fmt.Errorf("poll %s on %s: malformed result: %v", sr.ID, b.id, err)
			}
			j.Deliver(global, rewritten)
			delivered[k] = true
			cursor++
		}
		switch rep.State {
		case "canceled", "failed":
			return fmt.Errorf("sub-job %s on %s ended %s: %s", sr.ID, b.id, rep.State, rep.Error)
		}
	}
	return nil
}

// rewriteIndex re-marshals one replica result with its original batch
// index, passing the compile/simulate payload bytes through verbatim —
// the same rewrite /v1/batch merging uses, and for the same reason:
// byte-identity with a single-process run.
func rewriteIndex(res json.RawMessage, index int) ([]byte, error) {
	var r rawBatchResult
	if err := json.Unmarshal(res, &r); err != nil {
		return nil, err
	}
	r.Index = index
	return json.Marshal(r)
}

// cancelSubJob best-effort releases a replica-side sub-job whose front
// job is gone (canceled or front shutdown); the replica would otherwise
// keep computing results nobody will read.
func (f *Front) cancelSubJob(b *backend, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	f.call(ctx, http.MethodDelete, b.base+"/v1/jobs/"+id, nil)
}

// firstLine trims a response body to its first line for error messages.
func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' {
			return string(b[:i])
		}
	}
	return string(b)
}
