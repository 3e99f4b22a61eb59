(* Per-layer numbers: what the traced run reads out of the compiler's own
   reports (pass timing, metrics counters) and what the ledger's spans
   charge to each layer, plus the full per-layer metric list every traced
   run prints (zero where a workload does not touch a layer). *)

open Hida_estimator
open Hida_core
open Common

let pass_names =
  [
    "canonicalize";
    "functional-dataflow-construction";
    "functional-dataflow-task-fusion";
    "structural-dataflow-lowering-nn";
    "lowering";
    "multi-producer-elimination";
    "data-path-balancing";
    "dataflow-parallelization";
    "array-partition";
    "buffer-streamization";
    "tiling-and-pipeline";
  ]

let report_counters =
  [
    ("dse.points_evaluated", "dse.points_evaluated");
    ("qor.cache.lock_blocked", "qor_cache.lock_blocked");
    ("parallelize.pool.tasks", "parallelize.pool.tasks");
    ("parallelize.pool.steals", "parallelize.pool.steals");
    ("parallelize.pool.inline_levels", "parallelize.pool.inline_levels");
    ("dse.barrier_wait_total_ns", "dse.barrier_wait_total_ns");
    ("incr.subtree.hits", "incr.subtree.hits");
    ("incr.subtree.misses", "incr.subtree.misses");
  ]

(* Read one driver report: per-pass wall time from [pass_timing] and the
   counters the passes published.  Nothing is added to the compiler. *)
let absorb (rep : Driver.report) =
  if !tracing then begin
    List.iter
      (fun (s : Hida_ir.Pass.stats) ->
        let n = s.Hida_ir.Pass.pass_name in
        let n = if List.mem n pass_names then n else "other" in
        count ("pass." ^ n ^ ".ms") (1000. *. s.Hida_ir.Pass.seconds))
      rep.Driver.pass_timing;
    List.iter
      (fun (src, dst) ->
        count dst (float_of_int (Hida_obs.Metrics.counter rep.Driver.metrics src)))
      report_counters;
    match Hida_obs.Metrics.gauge rep.Driver.metrics "parallelize.pool.utilization" with
    | Some u ->
        count "pool.util.sum" u;
        count "pool.util.n" 1.
    | None -> ()
  end

(* Design size after the pipeline (ops of the final IR snapshot). *)
let ops_after (rep : Driver.report) =
  match List.rev rep.Driver.pass_deltas with
  | d :: _ -> d.Hida_obs.Ir_stats.pd_after.Hida_obs.Ir_stats.ops
  | [] -> 0

(* The shape of a fit search: how many programs it built (one per
   attempt) and the index of the attempt it returned.  The attempts try
   [Driver.pf_candidates] in order and then halve, so equal shapes mean
   the same parallel factors tried and the same one picked. *)
type shape = { attempts : int; chosen : int }

(* [Driver.fit] untraced.  Traced, the same search is replayed from the
   public pieces ([compile_*], [finish], [Resource.fits]) so the pipeline
   and [finish] of every attempt get their own spans; the replay also
   returns its shape, for [check_shape]. *)
let fit (p : Programs.t) build =
  if not !tracing then (Driver.fit ~device:p.Programs.device ~path:p.Programs.path build, None)
  else begin
    let n = ref 0 in
    let attempt pf =
      let _m, func = build () in
      let opts = { Driver.default with Driver.max_parallel_factor = pf } in
      let st = span "driver.opt" (fun () -> Programs.compile ~opts p func) in
      let r = span "driver.finish" (fun () -> Driver.finish ~device:p.Programs.device st func) in
      absorb r;
      incr n;
      (!n - 1, r)
    in
    let fits (_, r) = Resource.fits p.Programs.device r.Driver.estimate.Qor.d_resource in
    let rec largest = function
      | [] -> (1, attempt 1)
      | pf :: rest ->
          let a = attempt pf in
          if fits a then (pf, a) else largest rest
    in
    let pf0, best = largest Driver.pf_candidates in
    let rec descend pf ((_, b) as best) =
      let pf' = pf / 2 in
      if pf' < 1 then best
      else
        let ((_, r) as a) = attempt pf' in
        if
          fits a
          && r.Driver.estimate.Qor.d_throughput
             >= 0.98 *. b.Driver.estimate.Qor.d_throughput
        then descend pf' a
        else best
    in
    let chosen, r = descend pf0 best in
    (r, Some { attempts = !n; chosen })
  end

(* [Driver.fit]'s own shape on a program, observed through the [build]
   it calls; computed once per program, outside any measured op. *)
let fit_shapes : (string, shape) Hashtbl.t = Hashtbl.create 16

let driver_shape (p : Programs.t) =
  match Hashtbl.find_opt fit_shapes p.Programs.name with
  | Some s -> s
  | None ->
      let built = ref [] in
      let build () =
        let ((_m, f) as r) = p.Programs.build () in
        built := f :: !built;
        r
      in
      Qor_cache.clear (Qor_cache.global ());
      let rep = Driver.fit ~device:p.Programs.device ~path:p.Programs.path build in
      let funcs = List.rev !built in
      let rec index i = function
        | f :: _ when f == rep.Driver.design -> i
        | _ :: rest -> index (i + 1) rest
        | [] -> -1
      in
      let s = { attempts = List.length funcs; chosen = index 0 funcs } in
      Hashtbl.replace fit_shapes p.Programs.name s;
      s

(* A traced replay must search exactly as [Driver.fit] does. *)
let check_shape (p : Programs.t) = function
  | None -> true
  | Some s ->
      let d = driver_shape p in
      if s <> d then
        Printf.printf "replay of Driver.fit on %s: %d attempts, picked #%d; Driver.fit: %d, #%d\n"
          p.Programs.name s.attempts s.chosen d.attempts d.chosen;
      s = d

(* One compile through the public pipeline entry points, with spans. *)
let compile_and_finish ?opts (p : Programs.t) func =
  let st = span "driver.opt" (fun () -> Programs.compile ?opts p func) in
  let r = span "driver.finish" (fun () -> Driver.finish ~device:p.Programs.device st func) in
  absorb r;
  count "ir.ops_after" (float_of_int (ops_after r));
  r

(* Qor_cache probe totals around [f], counted per layer. *)
let with_cache_counters f =
  let g = Qor_cache.global () in
  let h0, m0 = Qor_cache.counters g in
  let r = f () in
  let h1, m1 = Qor_cache.counters g in
  count "qor_cache.hits" (float_of_int (h1 - h0));
  count "qor_cache.misses" (float_of_int (m1 - m0));
  r

(* ---- The per-layer metric list ---- *)

(* Serve-side values are set by the serve workload; zero elsewhere. *)
let serve_values : (string, float) Hashtbl.t = Hashtbl.create 16

let serve_metrics =
  [
    ("serve.rtt_ms_p50", "ms");
    ("serve.rtt_ms_p99", "ms");
    ("serve.server_ms_p50", "ms");
    ("serve.server_ms_p99", "ms");
    ("serve.transport_ms_p50", "ms");
    ("serve.hit_ratio", "ratio");
    ("serve.coalesced", "count");
    ("serve.cold_ms_p50", "ms");
    ("serve.hit_ms_p50", "ms");
    ("serve.queue_depth_max", "count");
    ("serve.busy_rejections", "count");
    ("serve.generator_lag_ms_p99", "ms");
    ("artifact.evictions", "count");
  ]

let ratio a b = if a +. b > 0. then a /. (a +. b) else 0.

(* Layer times and counters are per traced op; [gc_ops] ops span the
   [gc0]..[gc1] deltas; [overhead_ms] is traced minus untraced mean op
   latency. *)
let metrics ~gc_ops ~(gc0 : gc_snap) ~(gc1 : gc_snap) ~overhead_ms ~overhead_share =
  let per n v = if n > 0 then v /. float_of_int n else 0. in
  let per_op = per !op_count in
  let c name = per_op (counter name) in
  let wall = !op_wall_ns and unattributed = !op_unattributed_ns in
  let util_n = counter "pool.util.n" in
  [
    metric "frontend.build_ms" "ms" (layer_ms_per_op "frontend.build");
    metric "driver.opt_ms" "ms" (layer_ms_per_op "driver.opt");
    metric "driver.opt.alloc_mwords" "Mwords" (layer_mwords_per_op "driver.opt");
    metric "driver.finish_ms" "ms" (layer_ms_per_op "driver.finish");
    metric "driver.finish.alloc_mwords" "Mwords" (layer_mwords_per_op "driver.finish");
  ]
  @ List.map
      (fun n -> metric ("pass." ^ n ^ ".ms") "ms" (c ("pass." ^ n ^ ".ms")))
      (pass_names @ [ "other" ])
  @ [
      metric "dse.points_evaluated" "count" (c "dse.points_evaluated");
      metric "ir.ops_after" "count" (c "ir.ops_after");
      metric "qor_cache.hits" "count" (c "qor_cache.hits");
      metric "qor_cache.misses" "count" (c "qor_cache.misses");
      metric "qor_cache.hit_ratio" "ratio"
        (ratio (counter "qor_cache.hits") (counter "qor_cache.misses"));
      metric "qor_cache.lock_blocked" "count" (c "qor_cache.lock_blocked");
      metric "incr.subtree.hits" "count" (c "incr.subtree.hits");
      metric "incr.subtree.misses" "count" (c "incr.subtree.misses");
      metric "incr.subtree.hit_ratio" "ratio"
        (ratio (counter "incr.subtree.hits") (counter "incr.subtree.misses"));
      metric "qor_cache.reset_ms" "ms" (layer_ms_per_op "qor_cache.reset");
      metric "blob_store.save_ms" "ms" (layer_ms_per_op "blob_store.save");
      metric "blob_store.load_ms" "ms" (layer_ms_per_op "blob_store.load");
      metric "blob_store.stats_ms" "ms" (layer_ms_per_op "blob_store.stats");
      metric "blob_store.entries" "count" (c "blob_store.entries");
      metric "blob_store.bytes" "bytes" (c "blob_store.bytes");
      metric "blob_store.evictions" "count" (c "blob_store.evictions");
      metric "printer.ms" "ms" (layer_ms_per_op "printer");
      metric "printer.bytes" "bytes" (c "printer.bytes");
      metric "emit_cpp.ms" "ms" (layer_ms_per_op "emit_cpp");
      metric "emit_cpp.bytes" "bytes" (c "emit_cpp.bytes");
      metric "sim.compile_ms" "ms" (layer_ms_per_op "sim.compile");
      metric "sim.run_ms" "ms" (layer_ms_per_op "sim.run");
      metric "sim.frames_per_s" "1/s"
        (let run_s = ms_of_ns (layer "sim.run").self_ns /. 1000. in
         if run_s > 0. then counter "sim.frames" /. run_s else 0.);
      metric "parallelize.pool.tasks" "count" (c "parallelize.pool.tasks");
      metric "parallelize.pool.steals" "count" (c "parallelize.pool.steals");
      metric "parallelize.pool.utilization" "ratio"
        (if util_n > 0. then counter "pool.util.sum" /. util_n else 0.);
      metric "parallelize.pool.inline_levels" "count" (c "parallelize.pool.inline_levels");
      metric "dse.barrier_wait_total_ns" "ns" (c "dse.barrier_wait_total_ns");
    ]
  @ List.map
      (fun (n, u) ->
        metric n u (Option.value ~default:0. (Hashtbl.find_opt serve_values n)))
      serve_metrics
  @ [
      metric "gc.minor_collections" "count"
        (per gc_ops (float_of_int (gc1.minor_gcs - gc0.minor_gcs)));
      metric "gc.major_collections" "count"
        (per gc_ops (float_of_int (gc1.major_gcs - gc0.major_gcs)));
      metric "ledger.op_wall_ms" "ms" (per_op (ms_of_ns wall));
      metric "ledger.unattributed_ms" "ms" (per_op (ms_of_ns unattributed));
      metric "ledger.unattributed_share" "ratio"
        (if wall > 0 then float_of_int unattributed /. float_of_int wall else 0.);
      metric "ledger.trace_overhead_ms" "ms" overhead_ms;
      metric "ledger.trace_overhead_share" "ratio" overhead_share;
    ]
