// Request/response schema of the idemd HTTP/JSON API (see
// docs/service.md for the full catalog). Responses are deliberately
// deterministic artifacts: fixed struct field sets, no maps, function
// lists sorted by name — so a request replayed against any replica (or
// the library pipeline directly, see ReportForBuild) produces
// byte-identical bytes. cmd/idemload leans on that to assert
// reproducibility under load.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"

	"idemproc/internal/buildcache"
	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/fault"
	"idemproc/internal/lang"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

// Request size/shape bounds (validation rejects anything beyond them
// with 400 before touching the pipeline).
const (
	maxSourceBytes  = 1 << 20
	maxArgs         = machine.MaxArgs
	minMemWords     = 64
	maxMemWords     = 1 << 22
	defaultMemWords = 65536
	maxInjections   = 16
)

// httpError is a handler-level failure with an HTTP status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// ---------------------------------------------------------------------
// Options.

// CoreOptionsSpec overrides individual §4 construction options. Absent
// (null) booleans keep the paper's defaults (core.DefaultOptions), so a
// request only states what it changes.
type CoreOptionsSpec struct {
	LoopHeuristic     *bool `json:"loop_heuristic,omitempty"`
	RedElim           *bool `json:"red_elim,omitempty"`
	UnrollLoops       *bool `json:"unroll_loops,omitempty"`
	CutAtCalls        *bool `json:"cut_at_calls,omitempty"`
	MaxRegionSize     int   `json:"max_region_size,omitempty"`
	BalancedHeuristic bool  `json:"balanced_heuristic,omitempty"`
}

// OptionsSpec selects the compilation pipeline variant.
type OptionsSpec struct {
	// Idempotent selects the §4 region construction; defaults to true
	// for /v1/compile (the analysis is the point of the service) and is
	// forced by the scheme for /v1/simulate.
	Idempotent   *bool            `json:"idempotent,omitempty"`
	RelaxedAlloc bool             `json:"relaxed_alloc,omitempty"`
	PureCalls    bool             `json:"pure_calls,omitempty"`
	Core         *CoreOptionsSpec `json:"core,omitempty"`
}

// moduleOptions resolves the spec against the paper's defaults.
func (o *OptionsSpec) moduleOptions(defaultIdem bool) codegen.ModuleOptions {
	mo := codegen.ModuleOptions{Idempotent: defaultIdem, Core: core.DefaultOptions()}
	if o == nil {
		return mo
	}
	if o.Idempotent != nil {
		mo.Idempotent = *o.Idempotent
	}
	mo.RelaxedAlloc = o.RelaxedAlloc
	mo.PureCalls = o.PureCalls
	if c := o.Core; c != nil {
		if c.LoopHeuristic != nil {
			mo.Core.LoopHeuristic = *c.LoopHeuristic
		}
		if c.RedElim != nil {
			mo.Core.RedElim = *c.RedElim
		}
		if c.UnrollLoops != nil {
			mo.Core.UnrollLoops = *c.UnrollLoops
		}
		if c.CutAtCalls != nil {
			mo.Core.CutAtCalls = *c.CutAtCalls
		}
		if c.MaxRegionSize < 0 {
			c.MaxRegionSize = 0
		}
		mo.Core.MaxRegionSize = c.MaxRegionSize
		mo.Core.BalancedHeuristic = c.BalancedHeuristic
	}
	return mo
}

// ---------------------------------------------------------------------
// Workload resolution.

// SourceWorkload wraps an ad-hoc idc source as a cacheable workload: the
// name embeds a content hash so the compile cache keys source-identical
// requests together, and the source is validated up front so invalid
// programs fail with a parse error instead of reaching the pipeline.
func SourceWorkload(source string, memWords int, args []uint64) (workloads.Workload, error) {
	if len(source) > maxSourceBytes {
		return workloads.Workload{}, fmt.Errorf("source exceeds %d bytes", maxSourceBytes)
	}
	if _, err := lang.Compile(source); err != nil {
		return workloads.Workload{}, fmt.Errorf("source: %w", err)
	}
	if memWords <= 0 {
		memWords = defaultMemWords
	}
	sum := sha256.Sum256([]byte(source))
	return workloads.Workload{
		Name:     "src-" + hex.EncodeToString(sum[:8]),
		Suite:    "ADHOC",
		Source:   source,
		Args:     args,
		MemWords: memWords,
	}, nil
}

// resolveWorkload turns (workload|source, mem_words, args) into a
// concrete workload, enforcing the request bounds.
func resolveWorkload(name, source string, memWords int, args []uint64) (workloads.Workload, *httpError) {
	if len(args) > maxArgs {
		return workloads.Workload{}, badRequest("at most %d args", maxArgs)
	}
	if memWords != 0 && (memWords < minMemWords || memWords > maxMemWords) {
		return workloads.Workload{}, badRequest("mem_words must be in [%d, %d]", minMemWords, maxMemWords)
	}
	switch {
	case name != "" && source != "":
		return workloads.Workload{}, badRequest("workload and source are mutually exclusive")
	case name != "":
		w, ok := workloads.ByName(name)
		if !ok {
			return workloads.Workload{}, badRequest("unknown workload %q", name)
		}
		if memWords != 0 {
			w.MemWords = memWords
		}
		if args != nil {
			w.Args = args
		}
		return w, nil
	case source != "":
		w, err := SourceWorkload(source, memWords, args)
		if err != nil {
			return workloads.Workload{}, badRequest("%v", err)
		}
		return w, nil
	default:
		return workloads.Workload{}, badRequest("one of workload or source is required")
	}
}

// ---------------------------------------------------------------------
// POST /v1/compile

// CompileRequest asks for a compile plus its region/antidependence/cut
// report.
type CompileRequest struct {
	// Workload names a built-in benchmark; Source supplies ad-hoc idc
	// text. Exactly one must be set.
	Workload string `json:"workload,omitempty"`
	Source   string `json:"source,omitempty"`
	// MemWords overrides the linked memory size (default: the workload's
	// own, or 65536 for sources).
	MemWords int          `json:"mem_words,omitempty"`
	Options  *OptionsSpec `json:"options,omitempty"`
}

// AntidepReport is one clobber antidependence the construction cut.
type AntidepReport struct {
	Read      string `json:"read"`
	Write     string `json:"write"`
	MustAlias bool   `json:"must_alias"`
}

// FunctionReport is one function's §4 construction outcome.
type FunctionReport struct {
	Name              string          `json:"name"`
	Instructions      int             `json:"instructions"`
	Regions           int             `json:"regions"`
	AvgRegionSize     float64         `json:"avg_region_size"`
	LargestRegionSize int             `json:"largest_region_size"`
	AntidepsCut       int             `json:"antideps_cut"`
	CutsFromMulticut  int             `json:"cuts_from_multicut"`
	CutsFromCalls     int             `json:"cuts_from_calls"`
	CutsFromSelfDep   int             `json:"cuts_from_selfdep"`
	CutsFromRetSplit  int             `json:"cuts_from_retsplit"`
	LoopsUnrolled     int             `json:"loops_unrolled"`
	Antideps          []AntidepReport `json:"antideps,omitempty"`
}

// CompileReport is the /v1/compile response body.
type CompileReport struct {
	Workload    string `json:"workload"`
	Fingerprint string `json:"fingerprint"`
	MemWords    int    `json:"mem_words"`
	Idempotent  bool   `json:"idempotent"`

	StaticInstrs int `json:"static_instrs"`
	Marks        int `json:"marks"`
	SpillLoads   int `json:"spill_loads"`
	SpillStores  int `json:"spill_stores"`
	FrameWords   int `json:"frame_words"`

	// Verified is true when the serving cache's translation validator
	// (see Config.VerifyMode and docs/verify.md) checked this build and
	// found no §2.1 violations; false when verification is off or there
	// was nothing to check (a markless or relaxed-alloc build). The library
	// constructor ReportForBuild leaves it false — only the serving path
	// knows the cache's verification status.
	Verified bool `json:"verified"`

	// Functions holds the per-function region construction, sorted by
	// name (idempotent builds only).
	Functions []FunctionReport `json:"functions,omitempty"`
}

// ReportForBuild renders the canonical compile report for a finished
// build. The HTTP handler and library callers (examples/quickstart)
// share this single constructor, which is what makes the service's JSON
// and the library path diff-identical by construction.
func ReportForBuild(w workloads.Workload, mo codegen.ModuleOptions, st *codegen.BuildStats) *CompileReport {
	rep := &CompileReport{
		Workload:     w.Name,
		Fingerprint:  mo.Fingerprint(),
		MemWords:     w.MemWords,
		Idempotent:   mo.Idempotent,
		StaticInstrs: st.StaticInstrs,
		Marks:        st.Marks,
		SpillLoads:   st.SpillLoads,
		SpillStores:  st.SpillStores,
		FrameWords:   st.FrameWords,
	}
	names := make([]string, 0, len(st.Construction))
	for name := range st.Construction {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res := st.Construction[name]
		fr := FunctionReport{
			Name:              name,
			Instructions:      res.Stats.Instructions,
			Regions:           res.Stats.RegionCount,
			AvgRegionSize:     res.Stats.AvgRegionSize,
			LargestRegionSize: res.Stats.LargestRegionSize,
			AntidepsCut:       res.Stats.AntidepsCut,
			CutsFromMulticut:  res.Stats.CutsFromMulticut,
			CutsFromCalls:     res.Stats.CutsFromCalls,
			CutsFromSelfDep:   res.Stats.CutsFromSelfDep,
			CutsFromRetSplit:  res.Stats.CutsFromRetSplit,
			LoopsUnrolled:     res.Stats.LoopsUnrolled,
		}
		for _, d := range res.Antideps {
			fr.Antideps = append(fr.Antideps, AntidepReport{
				Read:      d.Read,
				Write:     d.Write,
				MustAlias: d.MustAlias,
			})
		}
		rep.Functions = append(rep.Functions, fr)
	}
	return rep
}

// ---------------------------------------------------------------------
// Routing keys.
//
// The shard front tier (internal/shard) routes every /v1 request by the
// same content key the buildcache uses, so one replica owns each
// distinct compile and the fleet's caches partition the working set.
// RouteKey mirrors the key derivation inside doCompile/doSimulate —
// workload resolution, memWords defaulting, options fingerprint — but
// performs no validation: a request that decodes but fails validation
// still gets a deterministic key, and the replica it lands on produces
// the canonical error.
// TestRouteKeyMatchesCacheKey pins the mirror against the real path.

// RouteKey returns the buildcache content key this request's build
// would use.
func (r *CompileRequest) RouteKey() buildcache.Key {
	return routeKey(r.Workload, r.Source, r.MemWords, r.Options.moduleOptions(true))
}

// RouteKey returns the buildcache content key this request's build
// would use.
func (r *SimulateRequest) RouteKey() buildcache.Key {
	return routeKey(r.Workload, r.Source, r.MemWords, r.buildOptions())
}

// routeKey resolves (workload|source, memWords) the way resolveWorkload
// does, minus validation, and pairs it with the options fingerprint.
func routeKey(name, source string, memWords int, mo codegen.ModuleOptions) buildcache.Key {
	k := buildcache.Key{Workload: name, MemWords: memWords, Options: mo.Fingerprint()}
	switch {
	case name != "" && source == "":
		if w, ok := workloads.ByName(name); ok && memWords == 0 {
			k.MemWords = w.MemWords
		}
	case source != "" && name == "":
		sum := sha256.Sum256([]byte(source))
		k.Workload = "src-" + hex.EncodeToString(sum[:8])
		if memWords <= 0 {
			k.MemWords = defaultMemWords
		}
	}
	return k
}

// ---------------------------------------------------------------------
// POST /v1/simulate

// InjectionSpec arms one fault before the run (absolute dynamic-
// instruction step placement; see internal/fault's model catalog).
type InjectionSpec struct {
	Model      string `json:"model"`
	Step       int64  `json:"step"`
	Mask       uint64 `json:"mask,omitempty"`
	Addr       int64  `json:"addr,omitempty"`
	After      int64  `json:"after,omitempty"`
	NestedMask uint64 `json:"nested_mask,omitempty"`
}

// parse resolves the model name and bounds-checks the placement.
func (i InjectionSpec) parse() (fault.Injection, *httpError) {
	ms, err := fault.ParseModels(i.Model)
	if err != nil || len(ms) != 1 {
		return fault.Injection{}, badRequest("injection model %q: must name exactly one model", i.Model)
	}
	if i.Step < 0 || i.After < 0 {
		return fault.Injection{}, badRequest("injection step/after must be >= 0")
	}
	return fault.Injection{
		Model: ms[0], Step: i.Step, Mask: i.Mask,
		Addr: i.Addr, After: i.After, NestedMask: i.NestedMask,
	}, nil
}

// SimulateRequest runs one program on the machine simulator under a
// recovery scheme, optionally with faults armed.
type SimulateRequest struct {
	Workload string   `json:"workload,omitempty"`
	Source   string   `json:"source,omitempty"`
	MemWords int      `json:"mem_words,omitempty"`
	Args     []uint64 `json:"args,omitempty"`
	// Scheme is none, dmr, tmr, cl or idem (default none). idem implies
	// the idempotent compilation; the others run the conventional binary
	// instrumented per scheme.
	Scheme string `json:"scheme,omitempty"`
	// Options tweaks the §4 construction (Idempotent is forced by the
	// scheme and must not be set here).
	Options    *OptionsSpec    `json:"options,omitempty"`
	TrackPaths bool            `json:"track_paths,omitempty"`
	Injections []InjectionSpec `json:"injections,omitempty"`
	// WatchdogRef overrides the livelock watchdog reference instruction
	// count used when injections are armed (default 2^20).
	WatchdogRef int64 `json:"watchdog_ref,omitempty"`
	// MaxSteps lowers the server's execution bound for this request.
	MaxSteps int64 `json:"max_steps,omitempty"`
}

// SimulateReport is the /v1/simulate response body. A run that ends in a
// machine-level error (fail-stop detection, livelock, crash) is still a
// 200: the outcome, including the error text, is part of the
// deterministic digest.
type SimulateReport struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Result   uint64 `json:"result"`
	Error    string `json:"error,omitempty"`
	// Digest is the machine.Snapshot state digest — the same artifact the
	// repository's differential golden test pins.
	Digest machine.Snapshot `json:"digest"`
	// AvgPathLen is the mean dynamic idempotent path length (when path
	// tracking was on).
	AvgPathLen float64 `json:"avg_path_len,omitempty"`
}

// scheme resolves the request's recovery scheme; apply is false when it
// runs without one ("" or none).
func (r *SimulateRequest) scheme() (s fault.Scheme, apply bool, he *httpError) {
	if r.Scheme == "" || r.Scheme == "none" {
		return 0, false, nil
	}
	s, ok := fault.ParseScheme(r.Scheme)
	if !ok {
		return 0, false, badRequest("unknown scheme %q (none, dmr, tmr, cl, idem)", r.Scheme)
	}
	return s, true, nil
}

// buildOptions is the build the request simulates: the scheme decides
// the idempotent-compilation bit. doSimulate and RouteKey both use it.
func (r *SimulateRequest) buildOptions() codegen.ModuleOptions {
	s, ok := fault.ParseScheme(r.Scheme)
	idem := ok && s.Idempotent()
	mo := r.Options.moduleOptions(idem)
	mo.Idempotent = idem
	return mo
}

// ---------------------------------------------------------------------
// POST /v1/batch

// BatchUnit is one unit of a batch: exactly one of Compile or Simulate.
type BatchUnit struct {
	Compile  *CompileRequest  `json:"compile,omitempty"`
	Simulate *SimulateRequest `json:"simulate,omitempty"`
}

// BatchRequest fans units onto the experiment engine's worker pool.
type BatchRequest struct {
	Units []BatchUnit `json:"units"`
}

// BatchResult is one unit's outcome, in request order. Per-unit failures
// are recorded here (the batch itself still returns 200); only
// validation and cancellation fail the whole request.
type BatchResult struct {
	Index    int             `json:"index"`
	Compile  *CompileReport  `json:"compile,omitempty"`
	Simulate *SimulateReport `json:"simulate,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// BatchResponse is the /v1/batch response body.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}
