package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// WriteJSON writes the registry snapshot as indented expvar-style JSON.
// A nil registry writes an empty snapshot; CLI tools can therefore dump
// unconditionally.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// promName sanitizes a metric name for the Prometheus text format and
// applies the system namespace prefix.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("safecube_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms as cumulative _bucket/_sum/_count series, and the last GS
// trace's headline numbers as gauges.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()

	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, bound, cum); err != nil {
				return err
			}
		}
		cum += h.Counts[len(h.Counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			pn, cum, pn, h.Sum, pn, h.Count); err != nil {
			return err
		}
		// Quantile estimates and per-bucket exemplars as plain gauge
		// series (valid 0.0.4 text; no OpenMetrics extensions), the one
		// exposition shared by every cmd. Quantiles go out in a fixed
		// order; an exemplar sample carries the last request ID that
		// landed in that bucket, linking it to /debug/flight.
		if h.Count > 0 {
			for _, q := range []struct{ label, key string }{
				{"0.5", "p50"}, {"0.9", "p90"}, {"0.99", "p99"}, {"0.999", "p999"},
			} {
				if _, err := fmt.Fprintf(w, "%s_quantile{q=\"%s\"} %g\n", pn, q.label, h.Quantiles[q.key]); err != nil {
					return err
				}
			}
		}
		for i, id := range h.Exemplars {
			if id == 0 {
				continue
			}
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%d", h.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_exemplar{le=\"%s\"} %d\n", pn, le, id); err != nil {
				return err
			}
		}
	}

	if s.GS != nil {
		for _, kv := range []struct {
			name string
			v    int
		}{
			{"gs_trace_rounds", s.GS.Rounds},
			{"gs_trace_messages", s.GS.Messages},
			{"gs_trace_max_link_messages", s.GS.MaxLinkMessages},
			{"gs_trace_updates", s.GS.Updates},
		} {
			pn := promName(kv.name)
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, kv.v); err != nil {
				return err
			}
		}
		for i, d := range s.GS.Deltas {
			pn := promName("gs_trace_round_delta")
			if _, err := fmt.Fprintf(w, "%s{round=\"%d\"} %d\n", pn, i+1, d); err != nil {
				return err
			}
		}
	}
	return nil
}

// JSONHandler serves the snapshot as JSON (the expvar-style view).
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
}

// PromHandler serves the Prometheus text exposition.
func (r *Registry) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Mux returns an http.ServeMux with the conventional endpoints wired:
// /metrics (Prometheus text) and /vars (expvar-style JSON).
func (r *Registry) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.PromHandler())
	mux.Handle("/vars", r.JSONHandler())
	return mux
}

// WriteDigest writes a compact latency-quantile table — one line per
// histogram with observations: name, p50/p90/p99/p999 and count. It is
// the human-readable digest shared by slmetrics -digest and ad-hoc
// debugging; the same numbers appear as _quantile series in
// WritePrometheus.
func (r *Registry) WriteDigest(w io.Writer) error {
	s := r.Snapshot()
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		if s.Histograms[name].Count > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if _, err := fmt.Fprintf(w, "%-28s %10s %10s %10s %10s %10s\n",
		"histogram", "p50", "p90", "p99", "p999", "count"); err != nil {
		return err
	}
	for _, name := range names {
		h := s.Histograms[name]
		q := h.Quantiles
		if _, err := fmt.Fprintf(w, "%-28s %10.0f %10.0f %10.0f %10.0f %10d\n",
			name, q["p50"], q["p90"], q["p99"], q["p999"], h.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteFlightText renders a flight-recorder snapshot as a fixed-width
// table, newest first — the ?format=text view of /debug/flight.
func WriteFlightText(w io.Writer, s *FlightSnapshot) error {
	if s == nil {
		s = &FlightSnapshot{}
	}
	if _, err := fmt.Fprintf(w, "flight: %d issued, %d retained (capacity %d)\n",
		s.Issued, len(s.Records), s.Capacity); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%8s %-8s %6s %5s %9s %9s %3s %4s %3s %5s %4s %-10s %s\n",
		"id", "kind", "gen", "items", "lat_us", "ddl_us", "ham", "hops", "det", "stale", "cond", "outcome", "err"); err != nil {
		return err
	}
	for _, rec := range s.Records {
		stale := ""
		if rec.Stale {
			stale = "stale"
		}
		if _, err := fmt.Fprintf(w, "%8d %-8s %6d %5d %9d %9d %3d %4d %3d %5s %4s %-10s %s\n",
			rec.ID, rec.Kind, rec.Gen, rec.Items, rec.LatencyUS, rec.DeadlineUS,
			rec.Hamming, rec.Hops, rec.Detours, stale, rec.Cond, rec.Outcome, rec.Err); err != nil {
			return err
		}
	}
	return nil
}

// WriteIncidentsText renders the incident buffer as transcripts, newest
// first, printing node addresses with fmtNode (nil for raw integers) —
// the ?format=text view of /debug/incidents.
func WriteIncidentsText(w io.Writer, s *IncidentSnapshot, fmtNode func(int) string) error {
	if s == nil {
		s = &IncidentSnapshot{}
	}
	if _, err := fmt.Fprintf(w, "incidents: %d total, %d retained (capacity %d)\n",
		s.Total, len(s.Incidents), s.Capacity); err != nil {
		return err
	}
	for _, inc := range s.Incidents {
		rec := inc.Record
		if _, err := fmt.Fprintf(w, "\n#%d [%s] req %d kind=%s gen=%d lat=%dus hops=%d/%d detours=%d cond=%s outcome=%s err=%s\n",
			inc.Seq, inc.Reason, rec.ID, rec.Kind, rec.Gen, rec.LatencyUS,
			rec.Hops, rec.Hamming, rec.Detours, rec.Cond, rec.Outcome, rec.Err); err != nil {
			return err
		}
		if inc.Trace != nil {
			if _, err := io.WriteString(w, inc.Trace.Format(fmtNode)); err != nil {
				return err
			}
		}
	}
	return nil
}
