package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans in memory around the layer calls the benchmark
// makes; a nil tracer records nothing and costs one nil check per call.
// Spans of one op share its id; Parent names the span that caused one.
type tracer struct {
	t0     time.Time
	nextOp atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

type span struct {
	Name    string  `json:"name"`
	Op      uint64  `json:"op"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func noop() {}

// op allocates an id for a new op (0 with tracing off).
func (t *tracer) op() uint64 {
	if t == nil {
		return 0
	}
	return t.nextOp.Add(1)
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string, op uint64, parent string) func() {
	if t == nil {
		return noop
	}
	start := time.Now()
	return func() { t.add(name, op, parent, start, time.Since(start)) }
}

func (t *tracer) add(name string, op uint64, parent string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	sp := span{Name: name, Op: op, Parent: parent,
		StartUS: float64(start.Sub(t.t0).Nanoseconds()) / 1e3, DurUS: float64(d.Nanoseconds()) / 1e3}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// durations returns the sorted durations (µs) of the spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.DurUS)
		}
	}
	sort.Float64s(out)
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// counters are cumulative layer counters by name; per-layer metrics are
// deltas between a snapshot before and after the traced phase.
type counters map[string]float64

func (c counters) add(name string, v float64) { c[name] += v }

// Span names the workloads record. Client-side spans time calls into the
// client package; probe spans time direct calls into one layer.
const (
	spanChoice     = "client.choice"     // Session.Choice until its ack
	spanLag        = "client.lag"        // ack until the last member has the push
	spanFetch      = "client.fetch"      // raw GetImageBytes
	spanJoin       = "client.join"       // Client.Join
	spanCmp        = "client.get_cmp"    // GetCmp, fetch plus decode
	spanImgDecode  = "image.decode"      // image.Decode of a fetched payload
	spanCmpDecode  = "compress.decode"   // compress.Unmarshal + Stream.Decode
	spanEncode     = "wire.event_encode" // presentation event body encode
	spanDecode     = "wire.event_decode" // presentation event body decode
	spanRoomChoice = "room.choice"       // direct room.Room.Choice
	spanCoreChoice = "core.choice"       // direct core.Engine.Choice
	spanCoreViews  = "core.views"        // direct core.Engine.Views
	spanGetImage   = "mediadb.get_image"
	spanGetCmp     = "mediadb.get_cmp"
	spanGetBlob    = "blob.get"
	spanTexts      = "mediadb.update_texts"
	spanPutDoc     = "mediadb.put_document"
	spanExport     = "mediadb.export_dataset"
)

// perLayer derives every per-layer metric from a traced phase, the
// counter deltas over it, the servers' method summaries and the spans.
// A layer the workload does not run reads 0.
func perLayer(ph phase, before, after counters, sums map[string]float64, tr *tracer) map[string]metric {
	d := func(name string) float64 { return after[name] - before[name] }
	ops := ph.ops()
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	p50ms := func(name string) float64 { return quantile(tr.durations(name), 0.5) / 1000 }
	p50us := func(name string) float64 { return quantile(tr.durations(name), 0.5) }
	sessions := float64(ph.sessions)
	m := map[string]metric{
		"client.ack_p50_ms":         {p50ms(spanChoice), "ms"},
		"client.display_lag_p50_ms": {p50ms(spanLag), "ms"},
		"client.fetch_p50_ms":       {p50ms(spanFetch), "ms"},
		"client.join_p50_ms":        {p50ms(spanJoin), "ms"},
		"client.cache_hit_ratio":    {ratio(d("client.display_hits"), d("client.display_fetches")), "ratio"},

		"compress.decode_p50_ms": {p50ms(spanCmpDecode), "ms"},
		"image.decode_p50_ms":    {p50ms(spanImgDecode), "ms"},

		"wire.writes_per_op":      {d("wire.writer_writes") / ops, "count"},
		"wire.messages_per_write": {ratio(d("wire.writer_messages"), d("wire.writer_writes")), "ratio"},
		"wire.bytes_per_op":       {d("wire.writer_bytes") / ops, "B"},
		"wire.pool_miss_ratio":    {ratio(d("wire.pool_misses"), d("wire.pool_gets")), "ratio"},
		"wire.event_encode_us":    {p50us(spanEncode), "us"},
		"wire.event_decode_us":    {p50us(spanDecode), "us"},

		"server.choice_p50_ms":       {sums["room.choice"], "ms"},
		"server.get_image_p50_ms":    {sums["db.getImage"], "ms"},
		"server.get_cmp_p50_ms":      {sums["db.getCmp"], "ms"},
		"server.join_p50_ms":         {sums["room.join"], "ms"},
		"server.save_minutes_p50_ms": {sums["room.saveMinutes"], "ms"},
		"server.obj_cache_hit_ratio": {ratio(d("cache.obj.hits"), d("cache.obj.hits")+d("cache.obj.misses")), "ratio"},
		"server.doc_cache_hit_ratio": {ratio(d("cache.doc.hits"), d("cache.doc.hits")+d("cache.doc.misses")), "ratio"},

		"room.push_events_per_op": {d("push.events") / ops, "count"},
		"room.encodes_per_op":     {d("push.encodes") / ops, "count"},
		"room.queue_drops":        {d("push.queue_drops"), "count"},
		"room.choice_us":          {p50us(spanRoomChoice), "us"},

		"core.choice_us": {p50us(spanCoreChoice), "us"},
		"core.views_us":  {p50us(spanCoreViews), "us"},

		"qos.prefetch_pushes_per_session": {ratio(d("qos.prefetch.pushes"), sessions), "count"},
		"qos.prefetch_kb_per_session":     {ratio(d("qos.prefetch.bytes")/1024, sessions), "KB"},

		"mediadb.get_image_us":      {p50us(spanGetImage), "us"},
		"mediadb.get_cmp_us":        {p50us(spanGetCmp), "us"},
		"blob.get_us":               {p50us(spanGetBlob), "us"},
		"blob.gets_per_op":          {d("blob.gets") / ops, "count"},
		"blob.puts_per_op":          {d("blob.puts") / ops, "count"},
		"mediadb.update_texts_us":   {p50us(spanTexts), "us"},
		"mediadb.put_document_us":   {p50us(spanPutDoc), "us"},
		"mediadb.export_dataset_us": {p50us(spanExport), "us"},

		"cluster.forwards_per_op":         {d("cluster.forwards") / ops, "count"},
		"cluster.replicate_rpcs_per_op":   {d("cluster.replicated") / ops, "count"},
		"cluster.manifest_syncs_per_op":   {d("cluster.manifest_syncs") / ops, "count"},
		"cluster.sync_chunk_kb_per_op":    {d("cluster.sync_chunk_bytes") / 1024 / ops, "KB"},
		"cluster.replicate_handle_p50_ms": {sums["node.replicate"], "ms"},

		"go.gc_cpu_ms_per_op":  {ph.gcCPU * 1000 / ops, "ms"},
		"go.gc_cycles_per_kop": {ph.gcCycles * 1000 / ops, "count"},
		"go.goroutines_peak":   {float64(ph.goroutinesPeak), "count"},
	}
	return m
}
