package main

// The metric catalogue. It mirrors BENCHMARK.json row for row (a unit
// test compares them), and every run reports exactly these names.

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, and none can read 0:
//
//   - on a query-only workload publish_docs_per_s is the preload's rate
//     (set-up, the workload's own store and fsync policy);
//   - on publish_durable the query metrics come from the queries run on
//     the fixed-size state the warm-up published.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "publish_docs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "wire_bytes_per_query", Unit: "B", Better: "lower", Bound: 0.15},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.15},
}

// perLayer are the traced pass's metrics, <module>.<metric>. A metric
// that does not apply to a workload reads 0 there. Exact marks the
// counts that are the same function of the inputs on every run; the
// other counts (store calls, blocks fetched, bytes by class, cache hits)
// differ by a fraction of a percent between runs even with one
// operation in flight, because an operation's own fan-out (parallel
// block fetches, concurrent appends) interleaves differently.
var perLayer = []metricDef{
	{Name: "xmltree.parse_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "xmltree.extract_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "xmltree.postings_per_doc", Unit: "count", Better: "lower", Exact: true},

	{Name: "pattern.parse_us_per_query", Unit: "us", Better: "lower"},
	{Name: "pattern.match_us_per_doc", Unit: "us", Better: "lower"},

	{Name: "postings.encode_ns_per_posting", Unit: "ns", Better: "lower"},
	{Name: "postings.decode_ns_per_posting", Unit: "ns", Better: "lower"},
	{Name: "postings.encoded_bytes_per_posting", Unit: "B", Better: "lower", Exact: true},

	{Name: "store.append_calls", Unit: "count", Better: "lower"},
	{Name: "store.append_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "store.append_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "store.batch_calls", Unit: "count", Better: "lower"},
	{Name: "store.batch_ops_per_commit", Unit: "count", Better: "higher"},
	{Name: "store.snapshot_calls", Unit: "count", Better: "lower"},
	{Name: "store.read_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "store.postings_read_per_query", Unit: "count", Better: "lower"},
	{Name: "store.bytes_written_per_doc_byte", Unit: "B/B", Better: "lower"},
	{Name: "store.index_bytes_per_doc_byte", Unit: "B/B", Better: "lower"},
	{Name: "store.reopen_ms", Unit: "ms", Better: "lower"},

	{Name: "dht.rpc_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "dht.rpc_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "dht.stream_opens_per_query", Unit: "count", Better: "lower"},
	{Name: "dht.lookup_us", Unit: "us", Better: "lower"},
	{Name: "dht.retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "dht.bytes_routing", Unit: "B", Better: "lower"},
	{Name: "dht.bytes_index", Unit: "B", Better: "lower"},
	{Name: "dht.bytes_postings", Unit: "B", Better: "lower"},
	{Name: "dht.bytes_filters", Unit: "B", Better: "lower"},
	{Name: "dht.bytes_control", Unit: "B", Better: "lower"},

	{Name: "dpp.root_fetches_per_query", Unit: "count", Better: "lower", Exact: true},
	{Name: "dpp.blocks_fetched_per_query", Unit: "count", Better: "lower"},
	{Name: "dpp.blocks_kept_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dpp.fetch_ms_per_kposting", Unit: "ms", Better: "lower"},

	{Name: "blockcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "blockcache.evictions", Unit: "count", Better: "lower"},
	{Name: "blockcache.bytes_saved_per_query", Unit: "B", Better: "higher"},

	{Name: "sbf.build_ab_ns_per_posting", Unit: "ns", Better: "lower"},
	{Name: "sbf.build_db_ns_per_posting", Unit: "ns", Better: "lower"},
	{Name: "sbf.filter_ns_per_posting", Unit: "ns", Better: "lower"},
	{Name: "sbf.filter_bytes_per_posting", Unit: "B", Better: "lower", Exact: true},

	{Name: "twigjoin.run_ns_per_posting", Unit: "ns", Better: "lower"},
	{Name: "twigjoin.postings_scanned_per_query", Unit: "count", Better: "lower", Exact: true},
	{Name: "twigjoin.pruned_ratio", Unit: "ratio", Better: "higher", Exact: true},

	{Name: "kadop.index_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "kadop.first_answer_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "kadop.second_phase_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "kadop.docs_evaluated_per_query", Unit: "count", Better: "lower", Exact: true},
	{Name: "kadop.answers_per_query", Unit: "count", Better: "higher", Exact: true},
	{Name: "kadop.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "kadop.publish_call_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "kadop.self_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "kadop.conventional_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "kadop.conventional_wire_bytes_per_query", Unit: "B", Better: "lower"},

	{Name: "trace.phase_fetch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trace.phase_filter_exchange_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trace.phase_answers_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}
