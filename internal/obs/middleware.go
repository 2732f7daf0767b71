package obs

import (
	"net/http"
	"strings"
)

// statusRecorder captures the response status for the exporter's
// retention decision (errored requests are always retained).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// HTTPTracing is a tier's outermost middleware on its API surface (paths
// under /v1/): it opens the request's root span, named "<tier> <path>",
// continuing an inbound W3C traceparent — and honoring its sampled flag —
// or minting a fresh trace with the exporter's head-sampling decision;
// echoes X-Trace-Id; and on completion exports the finished tree to the
// exporter's ring and hands it to slowLog, which sees the X-Request-Id the
// inner middleware echoed. Probe and debug endpoints are not traced.
//
// A malformed traceparent is never an error: per the W3C spec the request
// proceeds with a fresh root trace.
func HTTPTracing(tier string, exporter *Exporter, slowLog func(r *http.Request, root *Span, requestID string), next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		tracer := NewTracer()
		var sampled bool
		if tid, parent, remoteSampled, ok := ExtractTraceparent(r.Header); ok {
			tracer.SetRemote(tid, parent)
			sampled = remoteSampled
		} else {
			sampled = exporter.SampleNext()
		}
		root := tracer.Start(tier + " " + r.URL.Path)
		th := &TraceHandle{Tracer: tracer, Root: root, Sampled: sampled}
		w.Header().Set("X-Trace-Id", root.TraceID.String())
		sr := &statusRecorder{ResponseWriter: w}
		defer func() {
			root.End()
			exporter.Export(root, sampled, sr.status)
			slowLog(r, root, w.Header().Get("X-Request-Id"))
		}()
		next.ServeHTTP(sr, r.WithContext(ContextWithTrace(r.Context(), th)))
	})
}
