package service

import (
	"encoding/json"
	"errors"
	"net/http"
)

// MaxSpecBytes bounds how much of a POST /v1/jobs body the daemon reads. A
// JobSpec is a few hundred bytes; the slack is for long rounds lists and
// schedules.
const MaxSpecBytes = 1 << 20

// NewHandler exposes the scheduler over HTTP+JSON:
//
//	POST   /v1/jobs             submit a JobSpec → 202 {"id": "job-000000"}
//	GET    /v1/jobs             list all job statuses
//	GET    /v1/jobs/{id}        one job's status
//	DELETE /v1/jobs/{id}        cancel (idempotent; running jobs stop at the
//	                            next stage boundary)
//	GET    /v1/jobs/{id}/result the shared -json report (409 until succeeded)
//	GET    /v1/jobs/{id}/contigs the final FASTA (contigs + scaffolds)
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness
//
// Admission rejections map to 429 (queue full, tenant over quota) and 503
// (draining) so clients can back off and retry — the HTTP face of the
// scheduler's backpressure. A submitted body past MaxSpecBytes is a 413.
func NewHandler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes)).Decode(&spec); err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, err)
			return
		}
		id, err := s.Submit(spec)
		if err != nil {
			httpError(w, submitCode(err), err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Cancel(r.PathValue("id")); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		rep, err := s.Result(r.PathValue("id"))
		if err != nil {
			httpError(w, resultCode(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = rep.Encode(w)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/contigs", func(w http.ResponseWriter, r *http.Request) {
		path, err := s.OutputPath(r.PathValue("id"))
		if err != nil {
			httpError(w, resultCode(err), err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		http.ServeFile(w, r, path)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.RenderMetrics(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}

// submitCode maps Submit errors to status codes.
func submitCode(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// resultCode maps Result/OutputPath errors to status codes.
func resultCode(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrNotReady):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
