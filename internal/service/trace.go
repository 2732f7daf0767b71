package service

import (
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
)

// logSlowRequest emits the WARN line for requests over the slow
// threshold: trace id, endpoint, algorithm when known, and the per-stage
// breakdown of the pipeline that actually ran.
func (s *Server) logSlowRequest(r *http.Request, root *obs.Span, requestID string) {
	slow := s.exporter.SlowThreshold()
	if slow <= 0 || root == nil || root.Dur < slow || s.cfg.Logger == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("trace", root.TraceID.String()),
		// The tracing middleware wraps withRequestID, so the id is not in
		// this request's context — read the echoed response header instead.
		slog.String("id", requestID),
		slog.String("endpoint", r.URL.Path),
		slog.Float64("ms", float64(root.Dur)/float64(time.Millisecond)),
	}
	if algo := root.Attr("algorithm"); algo != "" {
		attrs = append(attrs, slog.String("algorithm", algo))
	}
	breakdown := root.Child("analyze").ChildSummary()
	if breakdown == "" {
		breakdown = root.ChildSummary()
	}
	if breakdown != "" {
		attrs = append(attrs, slog.String("stages", breakdown))
	}
	s.cfg.Logger.LogAttrs(r.Context(), slog.LevelWarn, "slow request", attrs...)
}
