package jobs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"h2onas/internal/httpserve"
)

// maxSpecBody bounds a job submission body: a spec is a handful of
// scalars, never more than a kilobyte.
const maxSpecBody = 1 << 20

// Mount registers the job API on mux:
//
//	POST   /jobs                        submit a search spec → 202 + record
//	GET    /jobs                        list the tenant's jobs
//	GET    /jobs/{id}                   status + live progress
//	DELETE /jobs/{id}                   cooperative cancellation
//	GET    /jobs/{id}/artifacts/{name}  result.json | best.dot
//
// The tenant is the X-Tenant header ("default" when absent). All access
// is tenant-scoped: another tenant's job answers 404, indistinguishable
// from a job that does not exist. Admission rejections (quota, full
// queue) answer 429 with Retry-After; a draining service answers 503.
func (s *Service) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/artifacts/{name}", s.handleArtifact)
}

// tenantOf resolves and validates the request's tenant; on failure it
// writes the 400 and returns ok=false.
func tenantOf(w http.ResponseWriter, r *http.Request) (string, bool) {
	t := r.Header.Get("X-Tenant")
	if t == "" {
		t = "default"
	}
	if !ValidTenant(t) {
		httpserve.Error(w, r, http.StatusBadRequest, "invalid X-Tenant (want 1..32 chars of [a-z0-9_-])")
		return "", false
	}
	return t, true
}

// writeServiceError maps service errors onto the shared JSON envelope.
func writeServiceError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrQuota), errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		httpserve.Error(w, r, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		httpserve.Error(w, r, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrNotFound):
		httpserve.Error(w, r, http.StatusNotFound, err.Error())
	default:
		httpserve.Error(w, r, http.StatusBadRequest, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// decodeSpec reads a submitted spec: one JSON object whose unknown fields
// are rejected; an empty body is the all-defaults spec.
func decodeSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil && err != io.EOF {
		return Spec{}, err
	}
	return spec, nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant, ok := tenantOf(w, r)
	if !ok {
		return
	}
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBody))
	if err != nil {
		httpserve.Error(w, r, http.StatusBadRequest, "bad spec: "+err.Error())
		return
	}
	rec, err := s.Submit(tenant, spec)
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	tenant, ok := tenantOf(w, r)
	if !ok {
		return
	}
	sts := s.List(tenant)
	if sts == nil {
		sts = []Status{}
	}
	writeJSON(w, http.StatusOK, sts)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	tenant, ok := tenantOf(w, r)
	if !ok {
		return
	}
	st, err := s.Status(tenant, r.PathValue("id"))
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	tenant, ok := tenantOf(w, r)
	if !ok {
		return
	}
	st, err := s.Cancel(tenant, r.PathValue("id"))
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	code := http.StatusOK
	if st.State == StateRunning {
		// Cancellation is cooperative: accepted, lands at the next step
		// boundary.
		code = http.StatusAccepted
	}
	writeJSON(w, code, st)
}

// artifactTypes is the servable allowlist with content types; anything
// else is 404 regardless of what is on disk.
var artifactTypes = map[string]string{
	"result.json": "application/json",
	"best.dot":    "text/vnd.graphviz",
}

func (s *Service) handleArtifact(w http.ResponseWriter, r *http.Request) {
	tenant, ok := tenantOf(w, r)
	if !ok {
		return
	}
	name := r.PathValue("name")
	ctype, ok := artifactTypes[name]
	if !ok {
		httpserve.Error(w, r, http.StatusNotFound, "no such artifact")
		return
	}
	f, err := s.Artifact(tenant, r.PathValue("id"), name)
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", ctype)
	_, _ = io.Copy(w, f)
}
