package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"prioplus/internal/exp"
	"prioplus/internal/obs/stream"
)

// API adapts a Scheduler to HTTP. Mount it on the streaming server so one
// listener carries both the observability endpoints (/metrics, /runs,
// /events) and the job endpoints:
//
//	POST   /jobs             submit a spec -> 202 + job snapshot
//	GET    /jobs             job table + queue/cache counters
//	GET    /jobs/{id}        one job's snapshot
//	DELETE /jobs/{id}        cancel a queued job
//	GET    /jobs/{id}/result finished job's output (+ ?format=text for raw bytes)
//	GET    /experiments      the registry: ids, descriptions, defaults
//
// Errors come back as JSON {"error": "..."} with 400 (bad spec), 404
// (unknown job), 409 (wrong state), 413 (body over 1 MiB), or 429 (queue
// full).
type API struct {
	sched *Scheduler
}

// NewAPI wraps a scheduler.
func NewAPI(s *Scheduler) *API {
	return &API{sched: s}
}

// Mount registers the job endpoints on the streaming server. Call before
// srv.Start.
func (a *API) Mount(srv *stream.Server) {
	srv.Handle("/jobs", "job queue: POST a spec, GET the table (JSON)", http.HandlerFunc(a.handleJobs))
	srv.Handle("/jobs/", "", http.HandlerFunc(a.handleJob))
	srv.Handle("/experiments", "experiment registry: ids, descriptions, defaults (JSON)", http.HandlerFunc(a.handleExperiments))
}

// maxBodyBytes bounds a POST /jobs body; larger bodies get HTTP 413.
const maxBodyBytes = 1 << 20

// submitRequest is the POST /jobs body. Params stays raw so it can be
// strict-decoded over the experiment's registered defaults.
type submitRequest struct {
	Experiment string          `json:"experiment"`
	Params     json.RawMessage `json:"params"`
	Artifact   bool            `json:"artifact"`
}

func (a *API) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeAPIJSON(w, http.StatusOK, a.sched.Jobs())
	case http.MethodPost:
		a.handleSubmit(w, r)
	default:
		apiError(w, http.StatusMethodNotAllowed, "method %s not allowed on /jobs", r.Method)
	}
}

func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var tooBig *http.MaxBytesError
	err := dec.Decode(&req)
	if err == nil {
		if err = dec.Decode(new(json.RawMessage)); err == io.EOF {
			err = nil
		} else if !errors.As(err, &tooBig) {
			err = errors.New("trailing data after the request object")
		}
	}
	switch {
	case errors.As(err, &tooBig):
		apiError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxBodyBytes)
		return
	case err != nil:
		apiError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	reg, ok := exp.Lookup(req.Experiment)
	if !ok {
		apiError(w, http.StatusBadRequest, "unknown experiment %q", req.Experiment)
		return
	}
	params, err := exp.DecodeParams(req.Params, reg.Defaults)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	snap, err := a.sched.Submit(JobSpec{Experiment: req.Experiment, Params: params, Artifact: req.Artifact})
	switch {
	case errors.Is(err, ErrQueueFull):
		apiError(w, http.StatusTooManyRequests, "%v", err)
	case err != nil:
		apiError(w, http.StatusBadRequest, "%v", err)
	default:
		writeAPIJSON(w, http.StatusAccepted, snap)
	}
}

// handleJob routes /jobs/{id} and /jobs/{id}/result.
func (a *API) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		apiError(w, http.StatusNotFound, "missing job id")
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		snap, err := a.sched.Job(id)
		if err != nil {
			apiError(w, http.StatusNotFound, "%v %q", err, id)
			return
		}
		writeAPIJSON(w, http.StatusOK, snap)
	case sub == "" && r.Method == http.MethodDelete:
		a.handleCancel(w, id)
	case sub == "result" && r.Method == http.MethodGet:
		a.handleResult(w, r, id)
	default:
		apiError(w, http.StatusNotFound, "no route %s %s", r.Method, r.URL.Path)
	}
}

func (a *API) handleCancel(w http.ResponseWriter, id string) {
	switch err := a.sched.Cancel(id); {
	case errors.Is(err, ErrNotFound):
		apiError(w, http.StatusNotFound, "%v %q", err, id)
	case errors.Is(err, ErrNotCancelable):
		apiError(w, http.StatusConflict, "%v", err)
	case err != nil:
		apiError(w, http.StatusInternalServerError, "%v", err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (a *API) handleResult(w http.ResponseWriter, r *http.Request, id string) {
	res, err := a.sched.Result(id)
	switch {
	case errors.Is(err, ErrNotFound):
		apiError(w, http.StatusNotFound, "%v %q", err, id)
		return
	case errors.Is(err, ErrNotFinished):
		apiError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		apiError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// format=text returns the raw output bytes, so shell clients can
	// byte-compare against a CLI run without a JSON decoder.
	if r.URL.Query().Get("format") == "text" {
		if res.Status != JobDone {
			apiError(w, http.StatusConflict, "job %s %s: %s", id, res.Status, res.Err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, res.Output)
		return
	}
	writeAPIJSON(w, http.StatusOK, res)
}

func (a *API) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		apiError(w, http.StatusMethodNotAllowed, "method %s not allowed on /experiments", r.Method)
		return
	}
	writeAPIJSON(w, http.StatusOK, struct {
		Experiments []ExperimentInfo `json:"experiments"`
	}{Experiments: Experiments()})
}

// writeAPIJSON renders v as indented JSON with an explicit status code.
func writeAPIJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError renders a JSON error body with the given status code.
func apiError(w http.ResponseWriter, code int, format string, args ...any) {
	writeAPIJSON(w, code, struct {
		Error string `json:"error"`
	}{Error: fmt.Sprintf(format, args...)})
}
