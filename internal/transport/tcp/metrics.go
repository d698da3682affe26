package tcp

import (
	"distknn/internal/obs"
	"distknn/internal/wire"
)

// This file binds the serving stack to the obs registry. Each layer
// resolves its named instruments once at construction and then records
// through struct fields: the hot path never touches the registry map,
// only lock-free atomics. When no registry is configured the layer
// binds to a private throwaway one — the recording code stays a single
// unconditional path either way, so enabling observability cannot
// change behavior (the non-perturbation contract: zero allocations per
// record, and wall-clock readings flow only into obs sinks).

// feMetrics is the frontend scheduler's instrument set.
type feMetrics struct {
	queries        *obs.Counter   // frontend_queries_total: client queries answered (a coalesced batch counts each participant)
	repliesFail    *obs.Counter   // frontend_replies_failed_total: replies carrying a program failure
	repliesDegr    *obs.Counter   // frontend_replies_degraded_total: replies carrying a retryable degraded failure
	epochsAdmitted *obs.Counter   // frontend_epochs_admitted_total: epoch ordinals consumed (scatter + direct waves)
	epochsFailed   *obs.Counter   // frontend_epochs_failed_total: epochs finished with a program failure
	epochsLost     *obs.Counter   // frontend_epochs_lost_total: epochs failed by seat loss mid-flight
	coalesced      *obs.Counter   // frontend_queries_coalesced_total: queries that joined a shared bucket epoch
	meshRounds     *obs.Counter   // frontend_mesh_rounds_total: Σ epoch rounds reported by the mesh
	meshMessages   *obs.Counter   // frontend_mesh_messages_total: Σ epoch messages reported by the mesh
	meshBytes      *obs.Counter   // frontend_mesh_bytes_total: Σ epoch mesh traffic bytes
	pruneWaves     *obs.Counter   // frontend_prune_waves_total: direct dispatch waves (probe + gather)
	pruneContacts  *obs.Counter   // frontend_prune_contacts_total: Σ per-point shard contacts of pruned queries
	pruneSkipped   *obs.Counter   // frontend_prune_shards_skipped_total: Σ shards a pruned batch never contacted
	inflight       *obs.Gauge     // frontend_epochs_inflight: window slots in use
	occupancy      *obs.Histogram // frontend_window_occupancy: window depth at each admission
	batchSize      *obs.Histogram // frontend_coalesced_batch_size: points per flushed bucket
	linger         *obs.Histogram // frontend_bucket_linger_ns: bucket open -> flush
	latency        *obs.Histogram // frontend_query_latency_ns: submit -> reply, per client query
}

func newFeMetrics(reg *obs.Registry) *feMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	registerPoolStats(reg)
	return &feMetrics{
		queries:        reg.Counter("frontend_queries_total"),
		repliesFail:    reg.Counter("frontend_replies_failed_total"),
		repliesDegr:    reg.Counter("frontend_replies_degraded_total"),
		epochsAdmitted: reg.Counter("frontend_epochs_admitted_total"),
		epochsFailed:   reg.Counter("frontend_epochs_failed_total"),
		epochsLost:     reg.Counter("frontend_epochs_lost_total"),
		coalesced:      reg.Counter("frontend_queries_coalesced_total"),
		meshRounds:     reg.Counter("frontend_mesh_rounds_total"),
		meshMessages:   reg.Counter("frontend_mesh_messages_total"),
		meshBytes:      reg.Counter("frontend_mesh_bytes_total"),
		pruneWaves:     reg.Counter("frontend_prune_waves_total"),
		pruneContacts:  reg.Counter("frontend_prune_contacts_total"),
		pruneSkipped:   reg.Counter("frontend_prune_shards_skipped_total"),
		inflight:       reg.Gauge("frontend_epochs_inflight"),
		occupancy:      reg.Histogram("frontend_window_occupancy", obs.SizeBuckets),
		batchSize:      reg.Histogram("frontend_coalesced_batch_size", obs.SizeBuckets),
		linger:         reg.Histogram("frontend_bucket_linger_ns", obs.LatencyBuckets),
		latency:        reg.Histogram("frontend_query_latency_ns", obs.LatencyBuckets),
	}
}

// nodeMetrics is the node serve loop's instrument set.
type nodeMetrics struct {
	epochsServed *obs.Counter // node_epochs_served_total: mesh epochs completed
	directServed *obs.Counter // node_direct_epochs_total: direct (no-mesh) epochs completed
	epochErrors  *obs.Counter // node_epoch_errors_total: epochs answered with an error frame
	meshRounds   *obs.Counter // node_mesh_rounds_total: Σ rounds of this node's mesh epochs
	meshFrames   *obs.Counter // node_mesh_frames_total: Σ round frames this node wrote in its mesh epochs
	meshMessages *obs.Counter // node_mesh_messages_total: Σ messages of this node's mesh epochs
	meshBytes    *obs.Counter // node_mesh_bytes_total: Σ mesh traffic bytes of this node's epochs
	ctrlIn       *obs.Counter // node_ctrl_bytes_in_total: control-plane frame bytes read from the frontend
	ctrlOut      *obs.Counter // node_ctrl_bytes_out_total: control-plane frame bytes written to the frontend
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	registerPoolStats(reg)
	return &nodeMetrics{
		epochsServed: reg.Counter("node_epochs_served_total"),
		directServed: reg.Counter("node_direct_epochs_total"),
		epochErrors:  reg.Counter("node_epoch_errors_total"),
		meshRounds:   reg.Counter("node_mesh_rounds_total"),
		meshFrames:   reg.Counter("node_mesh_frames_total"),
		meshMessages: reg.Counter("node_mesh_messages_total"),
		meshBytes:    reg.Counter("node_mesh_bytes_total"),
		ctrlIn:       reg.Counter("node_ctrl_bytes_in_total"),
		ctrlOut:      reg.Counter("node_ctrl_bytes_out_total"),
	}
}

// clientMetrics is tcp.Client's instrument set.
type clientMetrics struct {
	queries     *obs.Counter // client_queries_total: Do/DoContext calls
	retries     *obs.Counter // client_retries_total: attempts re-issued after a retryable failure
	degraded    *obs.Counter // client_degraded_replies_total: degraded replies observed (before any retry succeeds)
	reconnects  *obs.Counter // client_reconnects_total: dials after the first connection
	timeouts    *obs.Counter // client_timeouts_total: per-attempt timeouts
	outstanding *obs.Gauge   // client_outstanding: in-flight multiplexed tags
}

func newClientMetrics(reg *obs.Registry) *clientMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &clientMetrics{
		queries:     reg.Counter("client_queries_total"),
		retries:     reg.Counter("client_retries_total"),
		degraded:    reg.Counter("client_degraded_replies_total"),
		reconnects:  reg.Counter("client_reconnects_total"),
		timeouts:    reg.Counter("client_timeouts_total"),
		outstanding: reg.Gauge("client_outstanding"),
	}
}

// registerPoolStats exposes the wire buffer pools as callback gauges.
// wire itself stays telemetry-agnostic; gets - news = pool hits.
func registerPoolStats(reg *obs.Registry) {
	reg.Func("wire_writer_pool_gets_total", func() int64 {
		gets, _, _, _ := wire.PoolStats()
		return gets
	})
	reg.Func("wire_writer_pool_misses_total", func() int64 {
		_, news, _, _ := wire.PoolStats()
		return news
	})
	reg.Func("wire_frame_pool_gets_total", func() int64 {
		_, _, gets, _ := wire.PoolStats()
		return gets
	})
	reg.Func("wire_frame_pool_misses_total", func() int64 {
		_, _, _, news := wire.PoolStats()
		return news
	})
}
