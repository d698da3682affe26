package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"distknn/internal/kdtree"
	"distknn/internal/keys"
	"distknn/internal/metricindex"
	"distknn/internal/points"
	"distknn/internal/wire"
	"distknn/internal/xrand"
)

// The probes time direct calls into the layer packages on the data shapes
// the workloads serve. They run in every traced pass, whatever the
// workload, after its windows: a probe is a property of the layer.

// probeStream keeps probe inputs off the streams the workloads draw from.
const probeStream = 1 << 41

// timed runs f reps times and returns the median duration of a run. The
// span it leaves in the trace covers all the runs.
func timed(cfg config, name string, reps int, f func()) time.Duration {
	start := time.Now()
	runs := make([]float64, reps)
	for i := range runs {
		t0 := time.Now()
		f()
		runs[i] = float64(time.Since(t0))
	}
	cfg.traces.addProbe(name, start, time.Since(start))
	return time.Duration(median(runs))
}

func probe(cfg config, v values) error {
	sz := cfg.size
	sink := 0 // what the probed calls return is added up here, so none is dropped
	defer runtime.KeepAlive(&sink)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }

	// points, pq: the streaming top-l scan every scalar node runs per query.
	scalars := points.GenUniformScalars(xrand.NewStream(cfg.seed, probeStream), sz.scalarsPerNode, points.PaperDomain)
	rng := xrand.NewStream(cfg.seed, probeStream+1)
	v["points.topl_scan_ms"] = ms(timed(cfg, "points.topl_scan", 5, func() {
		sink += len(scalars.TopLItems(points.Scalar(rng.Uint64N(points.PaperDomain)), 256))
	}))

	// kdtree: build and query on a uniform shard, query on a clustered one.
	uniform := points.GenUniformVectors(xrand.NewStream(cfg.seed, probeStream+2), sz.vectorsPerNode, dim)
	var tree *kdtree.Tree
	var buildErr error
	v["kdtree.build_ms"] = ms(timed(cfg, "kdtree.build", 3, func() { tree, buildErr = kdtree.Build(uniform) }))
	if buildErr != nil {
		return fmt.Errorf("probe: kdtree build: %w", buildErr)
	}
	const knnCalls = 256
	query := func() points.Vector { return points.Vector{rng.Float64(), rng.Float64(), rng.Float64()} }
	v["kdtree.knn_us_l64"] = float64(timed(cfg, "kdtree.knn_l64", 3, func() {
		for i := 0; i < knnCalls; i++ {
			sink += len(tree.KNN(query(), 64))
		}
	})) / knnCalls / 1e3

	blobs, centers := points.GenGaussianClusters(xrand.NewStream(cfg.seed, probeStream+3), nodes*sz.vectorsPerNode, dim, nodes, sigma)
	var cl metricindex.Clustering
	v["metricindex.kcenter_ms"] = ms(timed(cfg, "metricindex.kcenter", 3, func() {
		cl = metricindex.KCenter(blobs.Pts, points.L2, nodes, cfg.seed)
	}))
	var shard []points.Vector
	for j, c := range cl.Assign {
		if c == 0 {
			shard = append(shard, blobs.Pts[j])
		}
	}
	shardSet, err := points.NewSet(shard, nil, points.L2, 1)
	if err != nil {
		return fmt.Errorf("probe: clustered shard: %w", err)
	}
	clustered, err := kdtree.Build(shardSet)
	if err != nil {
		return fmt.Errorf("probe: kdtree build: %w", err)
	}
	anchor := blobs.Pts[cl.Anchors[0]]
	near := func() points.Vector {
		q := make(points.Vector, dim)
		for j := range q {
			q[j] = anchor[j] + rng.NormFloat64()*sigma
		}
		return q
	}
	v["kdtree.knn_us_l512"] = float64(timed(cfg, "kdtree.knn_l512", 3, func() {
		for i := 0; i < knnCalls; i++ {
			sink += len(clustered.KNN(near(), 512))
		}
	})) / knnCalls / 1e3

	// metricindex: the admission test of one shard against a batch.
	const batch = 4096
	centerDist, ub := make([]float64, batch), make([]float64, batch)
	for i := range centerDist {
		centerDist[i] = math.Sqrt(keys.DecodeFloat(points.L2(near(), centers[i%nodes])))
		ub[i] = sigma * rng.Float64()
	}
	v["metricindex.admit_ns"] = float64(timed(cfg, "metricindex.admit", 5, func() {
		sink += len(metricindex.AdmitSub(centerDist, ub, 3*sigma, nil))
	})) / batch

	// wire: a tagged one-vector query, and a node's l=512 result, each
	// encoded into a pooled writer, framed, read back and decoded.
	const frames = 2048
	var stream bytes.Buffer
	var readBuf []byte
	var frameErr error
	q := wire.Query{Op: wire.OpKNN, L: 64, Tag: wire.PointVector, Points: [][]byte{wire.EncodeVectorPoint(query())}}
	var decoded wire.Query
	v["wire.query_frame_ns"] = float64(timed(cfg, "wire.query_frame", 5, func() {
		for i := 0; i < frames && frameErr == nil; i++ {
			stream.Reset()
			w := wire.GetWriter()
			w.BeginFrame()
			wire.AppendQueryTagged(w, uint64(i), q)
			frameErr = w.EndFrame(&stream)
			wire.PutWriter(w)
			if frameErr != nil {
				break
			}
			if readBuf, frameErr = wire.ReadFrameInto(&stream, readBuf); frameErr != nil {
				break
			}
			r := wire.NewReader(readBuf)
			r.Kind()
			r.Varint()
			frameErr = wire.DecodeQueryInto(r, &decoded)
		}
	})) / frames
	if frameErr != nil {
		return fmt.Errorf("probe: query frame: %w", frameErr)
	}
	nr := wire.NodeResult{Epoch: 1, Node: 1, Queries: []wire.NodeQueryResult{{Winners: clustered.KNN(near(), 512)}}}
	v["wire.result_frame_us_l512"] = float64(timed(cfg, "wire.result_frame_l512", 5, func() {
		for i := 0; i < frames/8 && frameErr == nil; i++ {
			stream.Reset()
			w := wire.GetWriter()
			w.BeginFrame()
			wire.AppendNodeResult(w, nr)
			frameErr = w.EndFrame(&stream)
			wire.PutWriter(w)
			if frameErr != nil {
				break
			}
			if readBuf, frameErr = wire.ReadFrameInto(&stream, readBuf); frameErr != nil {
				break
			}
			r := wire.NewReader(readBuf)
			r.Kind()
			var got wire.NodeResult
			got, frameErr = wire.DecodeNodeResult(r)
			sink += len(got.Queries)
		}
	})) / (frames / 8) / 1e3
	if frameErr != nil {
		return fmt.Errorf("probe: result frame: %w", frameErr)
	}
	return nil
}
