package obs

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHTTPTracing drives the middleware directly: API paths get a root
// span named after the tier, continue an inbound traceparent, record the
// status the handler wrote, and reach the slow-log callback with the
// request id an inner middleware echoed; other paths pass through
// untraced.
func TestHTTPTracing(t *testing.T) {
	exp := NewExporter(8, 0, 0) // retain errored requests only
	var gotRoot *Span
	var gotID string
	h := HTTPTracing("tier", exp, func(_ *http.Request, root *Span, requestID string) {
		gotRoot, gotID = root, requestID
	}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if TraceFromContext(r.Context()).RootSpan() == nil {
			t.Error("handler saw no trace in its context")
		}
		w.Header().Set("X-Request-Id", "req-1")
		w.WriteHeader(http.StatusTeapot)
	}))

	tid, parent := NewTraceID(), NewSpanID()
	req := httptest.NewRequest(http.MethodGet, "/v1/thing", nil)
	InjectTraceparent(req.Header, tid, parent, false)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Trace-Id"); got != tid.String() {
		t.Fatalf("X-Trace-Id=%q, want the inbound trace %s", got, tid)
	}
	if gotRoot == nil || gotRoot.Name != "tier /v1/thing" || gotID != "req-1" {
		t.Fatalf("slow-log callback saw root=%v id=%q", gotRoot, gotID)
	}
	list := exp.List()
	if len(list.Traces) != 1 || list.Traces[0].Status != http.StatusTeapot || list.Traces[0].Reason != RetainError {
		t.Fatalf("exported: %+v", list.Traces)
	}

	rec = httptest.NewRecorder()
	HTTPTracing("tier", exp, func(*http.Request, *Span, string) { t.Error("probe path reached slow log") },
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if TraceFromContext(r.Context()) != nil {
				t.Error("probe path was traced")
			}
		})).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Header().Get("X-Trace-Id") != "" {
		t.Fatal("probe path echoed a trace id")
	}
}
