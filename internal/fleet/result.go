package fleet

import (
	"stac/internal/stats"
)

// MigrationEvent records one migrator decision that moved a service.
type MigrationEvent struct {
	// Epoch is the first epoch the new placement serves traffic.
	Epoch   int    `json:"epoch"`
	Service string `json:"service"`
	From    string `json:"from"`
	To      string `json:"to"`
	// Reason is "sla" (model predicted a p95 SLA miss) or "drain" (the
	// source node is being drained).
	Reason string `json:"reason"`
	// PredictedFrom/PredictedTo are the model's p95 predictions for the
	// next epoch on the source and destination; SLA is the threshold.
	PredictedFrom float64 `json:"predicted_from"`
	PredictedTo   float64 `json:"predicted_to"`
	SLA           float64 `json:"sla"`
}

// NodeResult aggregates one node's share of the run.
type NodeResult struct {
	Name    string  `json:"name"`
	Queries int     `json:"queries"`
	Mean    float64 `json:"mean_response"`
	P95     float64 `json:"p95_response"`
	// MaxBacklog is the node's peak router-side fluid backlog in
	// seconds of outstanding work — the max-load metric balancing
	// policies are judged on.
	MaxBacklog float64 `json:"max_backlog_seconds"`
	// Routed counts queries routed to this node per service.
	Routed map[string]int `json:"routed"`
}

// ServiceResult aggregates one service's fleet-wide performance.
type ServiceResult struct {
	Name    string  `json:"name"`
	Queries int     `json:"queries"`
	Mean    float64 `json:"mean_response"`
	P95     float64 `json:"p95_response"`
	// SLA is the service's p95 target (slaFactor × reference solo
	// service time).
	SLA float64 `json:"sla"`
	// EpochP95 is the service's measured p95 per epoch (NaN-free: an
	// epoch with no completed queries reports 0).
	EpochP95 []float64 `json:"epoch_p95"`
	// Migrations counts moves of this service.
	Migrations int `json:"migrations"`
	// FinalNodes is the service's placement after the last epoch.
	FinalNodes []string `json:"final_nodes"`
}

// Result is the merged outcome of a fleet run.
type Result struct {
	Policy   string  `json:"policy"`
	Epochs   int     `json:"epochs"`
	EpochLen float64 `json:"epoch_len_seconds"`
	Queries  int     `json:"queries"`
	// FleetMean/FleetP95 aggregate response times over every measured
	// query on every node.
	FleetMean float64 `json:"fleet_mean_response"`
	FleetP95  float64 `json:"fleet_p95_response"`
	// EpochP95 is the fleet-wide p95 per epoch.
	EpochP95 []float64 `json:"epoch_p95"`
	// Truncated counts node runs cut short by the simulated-time guard.
	Truncated  int              `json:"truncated_runs"`
	Nodes      []NodeResult     `json:"nodes"`
	Services   []ServiceResult  `json:"services"`
	Migrations []MigrationEvent `json:"migrations"`

	// responses holds every measured response time, ordered by
	// (epoch, node, service, query) — the raw stream determinism tests
	// digest. Not serialised.
	responses []float64
}

// Migration returns the events affecting the named service.
func (r *Result) Migration(service string) []MigrationEvent {
	var out []MigrationEvent
	for _, m := range r.Migrations {
		if m.Service == service {
			out = append(out, m)
		}
	}
	return out
}

func p95OrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 95)
}

func meanOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Mean(xs)
}
