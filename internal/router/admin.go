package router

// This file registers the router's own series next to the frame's: the
// fan-out's vital signs — per-backend request/error/retry/ejection
// counters, the fan-out width distribution (how well the shard MBRs
// prune), and merge latency. The admin endpoint that serves them is the
// frame's.

import "strtree/internal/obs"

// registerFanoutSeries adds the fan-out's counters to the frame's registry,
// Func-backed like the frame's own.
func (r *Router) registerFanoutSeries() {
	reg := r.Registry()
	reg.CounterFunc("strrouter_unavailable_total", "Client requests refused because a needed shard had no healthy replica.", r.unavailable.Load)
	reg.CounterFunc("strrouter_retries_total", "Shard calls retried on another replica after a failure.", r.retriesTot.Load)

	// Shape of the topology, for dashboards joining load to fleet size.
	reg.GaugeFunc("strrouter_shards", "Shards in the routing map.",
		func() float64 { return float64(len(r.m.Shards)) })
	reg.GaugeFunc("strrouter_backends", "Distinct backend addresses in the routing map.",
		func() float64 { return float64(len(r.backends)) })
	reg.GaugeFunc("strrouter_healthy_backends", "Backends currently in rotation.",
		func() float64 {
			n := 0
			for _, b := range r.backends {
				if b.healthy() {
					n++
				}
			}
			return float64(n)
		})

	// Per-backend traffic and health, labeled by address.
	for _, b := range r.backends {
		b := b
		l := obs.L("backend", b.addr)
		reg.CounterFunc("strrouter_backend_requests_total", "Round trips attempted, by backend.", b.requests.Load, l)
		reg.CounterFunc("strrouter_backend_errors_total", "Transport failures and draining answers, by backend.", b.errors.Load, l)
		reg.CounterFunc("strrouter_backend_retries_total", "Round trips that were retries of another replica's failure, by backend.", b.retries.Load, l)
		reg.CounterFunc("strrouter_backend_ejections_total", "Times the backend was ejected from rotation, by backend.", b.ejections.Load, l)
		reg.CounterFunc("strrouter_backend_restores_total", "Times the backend was restored to rotation, by backend.", b.restores.Load, l)
		reg.GaugeFunc("strrouter_backend_healthy", "1 while the backend is in rotation, else 0.",
			func() float64 {
				if b.healthy() {
					return 1
				}
				return 0
			}, l)
	}

	// Latency and fan-out distributions. Fan-out width is recorded as
	// whole "seconds" so the summary's second-valued quantiles read
	// directly in shards: a 3.0 quantile means 3 shards contacted.
	reg.HistogramFunc("strrouter_merge_seconds", "Merge-step latency alone.", &r.mergeLat)
	reg.HistogramFunc("strrouter_fanout_width_shards", "Shards contacted per request (unit: shards, not seconds).", &r.fanWidth)
}
