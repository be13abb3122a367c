// The -jobs campaign: instead of firing the request mix, submit one
// deterministic batch via POST /v1/jobs and consume its results
// incrementally — cursor long-polls by default, the NDJSON stream with
// -stream. The client is built to survive the server being killed and
// restarted mid-job: submits retry, polls ride out transport errors,
// broken streams reconnect at the cursor, and the reconstructed
// response must still be byte-identical to a /v1/batch run (that is
// the journal-resume contract end to end, and what jobs_smoke.sh
// drives with a kill -9).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"time"

	"idemproc/internal/jobs"
	"idemproc/internal/server"
)

// jobProgressBudget is how long the consume loop tolerates zero
// progress (daemon down, job parked) before giving up. It spans a
// kill + restart + recovery cycle with a wide margin.
const jobProgressBudget = 90 * time.Second

// jobSlowSource is a content-key-diverse, deliberately slow workload
// for -job-sim-steps campaigns: big step counts leave the kill window
// the resume smoke test needs.
func jobSlowSource(i int) string {
	return fmt.Sprintf("func main(int n) int {\n\tint s = %d;\n\tint t = 1;\n\tfor (int i = 0; i < n; i = i + 1) { s = s + i; t = t + s; }\n\treturn s + t;\n}\n", i)
}

// genJobBatch builds the campaign body: a pure function of (seed, n,
// simSteps), so two runs with the same flags submit identical bytes —
// which is what lets a restarted campaign assert -expect-digest.
func genJobBatch(seed uint64, n int, simSteps int64) []byte {
	units := make([]server.BatchUnit, n)
	for i := range units {
		r := newRNG(seed^0xa5a5a5a5a5a5a5a5, uint64(i))
		if simSteps > 0 {
			units[i].Simulate = &server.SimulateRequest{
				Source: jobSlowSource(i % 8),
				Args:   []uint64{uint64(simSteps) + uint64(i%8)},
			}
			continue
		}
		if r.n(3) == 0 {
			units[i].Simulate = genSimulate(r)
		} else {
			units[i].Compile = genCompile(r)
		}
	}
	b, err := json.Marshal(&server.BatchRequest{Units: units})
	if err != nil {
		panic(err) // request structs always marshal
	}
	return b
}

// jobsCampaignResult is what the campaign reports into the summary.
type jobsCampaignResult struct {
	jobID         string
	units         int
	digest        uint64
	body          []byte // reconstructed {"results":[...]}\n
	submitRetries int
	pollRetries   int
	streamResumes int
	verifiedBatch bool
}

// runJobsCampaign drives one job to completion. Every transient
// failure (retryable) retries under the progress budget; an answer that
// re-sending cannot fix, a terminal job state (canceled/failed), a
// vanished handle, or a dry budget is fatal.
func runJobsCampaign(ctx context.Context, client *http.Client, base string, body []byte,
	stream bool, idFile string, quiet bool, stdout io.Writer) (jobsCampaignResult, error) {
	var res jobsCampaignResult

	// Submit with retry: the daemon may be shedding (429) or restarting.
	deadline := time.Now().Add(jobProgressBudget)
	var sub server.SubmitResponse
	for {
		status, resp, err := post(ctx, client, base+"/v1/jobs", body)
		if err == nil && status == http.StatusOK {
			if err := json.Unmarshal(resp, &sub); err != nil {
				return res, fmt.Errorf("submit: malformed response: %v", err)
			}
			break
		}
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		if !retryable(status, err) {
			return res, fmt.Errorf("submit: status %d: %s", status, firstLine(resp))
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("submit: no success within %s (last: status %d err %v)", jobProgressBudget, status, err)
		}
		res.submitRetries++
		time.Sleep(500 * time.Millisecond)
	}
	res.jobID, res.units = sub.ID, sub.Units
	if !quiet {
		fmt.Fprintf(stdout, "job %s: %d units submitted\n", sub.ID, sub.Units)
	}
	if idFile != "" {
		// Write-then-rename so the smoke script never reads a partial id.
		tmp := idFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(sub.ID+"\n"), 0o644); err != nil {
			return res, fmt.Errorf("job-id-file: %v", err)
		}
		if err := os.Rename(tmp, idFile); err != nil {
			return res, fmt.Errorf("job-id-file: %v", err)
		}
	}

	var lines [][]byte
	var err error
	if stream {
		lines, err = consumeStream(ctx, base, sub, &res, quiet, stdout)
	} else {
		lines, err = consumePolls(ctx, client, base, sub, &res, quiet, stdout)
	}
	if err != nil {
		return res, err
	}
	if len(lines) != sub.Units {
		return res, fmt.Errorf("job %s: %d results for %d units", sub.ID, len(lines), sub.Units)
	}

	// Reconstruct the equivalent /v1/batch body and digest it — the same
	// FNV-64a the request-mix passes use, so -expect-digest composes.
	res.body = append(append([]byte(`{"results":[`), bytes.Join(lines, []byte(","))...), []byte("]}\n")...)
	h := fnv.New64a()
	h.Write(res.body)
	res.digest = h.Sum64()
	return res, nil
}

// consumePolls drives GET /v1/jobs/{id}?cursor=N&wait=... to the end.
func consumePolls(ctx context.Context, client *http.Client, base string, sub server.SubmitResponse,
	res *jobsCampaignResult, quiet bool, stdout io.Writer) ([][]byte, error) {
	var lines [][]byte
	cursor := 0
	lastProgress := time.Now()
	for {
		url := fmt.Sprintf("%s/v1/jobs/%s?cursor=%d&wait=10000", base, sub.ID, cursor)
		status, resp, err := httpGet(ctx, client, url)
		if ctx.Err() != nil {
			return lines, ctx.Err()
		}
		if err != nil || status != http.StatusOK {
			if status == http.StatusNotFound {
				return lines, fmt.Errorf("job %s vanished: the journal did not survive the restart", sub.ID)
			}
			if !retryable(status, err) {
				return lines, fmt.Errorf("job %s: poll: status %d: %s", sub.ID, status, firstLine(resp))
			}
			if time.Since(lastProgress) > jobProgressBudget {
				return lines, fmt.Errorf("job %s: no progress within %s (last: status %d err %v)", sub.ID, jobProgressBudget, status, err)
			}
			res.pollRetries++
			time.Sleep(500 * time.Millisecond)
			continue
		}
		var rep jobs.PollResponse
		if err := json.Unmarshal(resp, &rep); err != nil {
			return lines, fmt.Errorf("job %s: malformed poll response: %v", sub.ID, err)
		}
		for _, r := range rep.Results {
			lines = append(lines, []byte(r))
		}
		if len(rep.Results) > 0 {
			cursor = rep.NextCursor
			lastProgress = time.Now()
			if !quiet {
				fmt.Fprintf(stdout, "job %s: %d/%d results\n", sub.ID, cursor, sub.Units)
			}
		}
		switch rep.State {
		case "done":
			if cursor >= sub.Units {
				return lines, nil
			}
		case "canceled", "failed":
			return lines, fmt.Errorf("job %s ended %s: %s", sub.ID, rep.State, rep.Error)
		}
	}
}

// consumeStream drives GET /v1/jobs/{id}/stream, reconnecting at the
// cursor whenever the stream breaks (server restart, connection loss).
// The stream client carries no request timeout — a healthy stream can
// legitimately outlive any fixed bound; ctx still cancels it.
func consumeStream(ctx context.Context, base string, sub server.SubmitResponse,
	res *jobsCampaignResult, quiet bool, stdout io.Writer) ([][]byte, error) {
	client := &http.Client{}
	var lines [][]byte
	lastProgress := time.Now()
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			res.streamResumes++
			time.Sleep(500 * time.Millisecond)
		}
		if ctx.Err() != nil {
			return lines, ctx.Err()
		}
		if time.Since(lastProgress) > jobProgressBudget {
			return lines, fmt.Errorf("job %s: no stream progress within %s", sub.ID, jobProgressBudget)
		}
		url := fmt.Sprintf("%s/v1/jobs/%s/stream?cursor=%d", base, sub.ID, len(lines))
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return lines, err
		}
		resp, err := client.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound {
				return lines, fmt.Errorf("job %s vanished: the journal did not survive the restart", sub.ID)
			}
			if !retryable(resp.StatusCode, nil) {
				return lines, fmt.Errorf("job %s: stream: status %d: %s", sub.ID, resp.StatusCode, firstLine(msg))
			}
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			lines = append(lines, append([]byte(nil), line...))
			lastProgress = time.Now()
		}
		resp.Body.Close()
		if !quiet {
			fmt.Fprintf(stdout, "job %s: %d/%d results (stream attempt %d)\n", sub.ID, len(lines), sub.Units, attempt+1)
		}
		if len(lines) >= sub.Units {
			return lines, nil
		}
		// Short stream: either the connection broke (reconnect at the
		// cursor) or the job went terminal early — one poll tells which.
		status, resp2, err := httpGet(ctx, client, fmt.Sprintf("%s/v1/jobs/%s?cursor=%d", base, sub.ID, len(lines)))
		if err == nil && status == http.StatusOK {
			var rep jobs.PollResponse
			if json.Unmarshal(resp2, &rep) == nil && (rep.State == "canceled" || rep.State == "failed") {
				return lines, fmt.Errorf("job %s ended %s: %s", sub.ID, rep.State, rep.Error)
			}
		}
	}
}

// verifyAgainstBatch POSTs the same body to /v1/batch and asserts the
// reconstructed job results match it byte for byte — the determinism
// contract the whole subsystem hangs off.
func verifyAgainstBatch(ctx context.Context, client *http.Client, base string, body []byte, res *jobsCampaignResult) error {
	status, resp, err := post(ctx, client, base+"/v1/batch", body)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("verify batch: status %d err %v", status, err)
	}
	if !bytes.Equal(resp, res.body) {
		return fmt.Errorf("job reconstruction diverges from /v1/batch (job %d bytes, batch %d bytes)", len(res.body), len(resp))
	}
	res.verifiedBatch = true
	return nil
}

// httpGet is post's GET sibling.
func httpGet(ctx context.Context, client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, b, nil
}
