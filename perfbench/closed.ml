(* The closed loop shared by cold-fit, edit-iterate and parallel-dse: one
   client issues ops back to back for the measured time.  Ops come in
   passes (one seeded round over the workload's programs); the loop stops
   at the first op boundary after the time is up.

   With --trace 1, passes alternate untraced / traced, so the tracing
   overhead is the difference of the two interleaved means rather than a
   drift between an early and a late half. *)

open Common

type outcome = { ok : bool; design_latency : float }

(* [exec] is the timed part; the verdict it returns runs after the clock
   stops (digests, comparisons). *)
type op = { label : string; exec : unit -> unit -> outcome }

type result = {
  samples : (string * float * outcome) list;  (** label, op ms, verdict *)
  elapsed_s : float;
  ops : int;
  failed : int;
  gc0 : gc_snap;
  gc1 : gc_snap;
  peak_mb : float;  (** peak heap by the end of the measured loop *)
  overhead_ms : float;
  overhead_share : float;
}

let run cfg ~(next_pass : int -> op list) =
  let t_start = now_ns () in
  let t_end = t_start + int_of_float (cfg.seconds *. 1e9) in
  let samples = ref [] and failed = ref 0 and ops = ref 0 in
  (* (traced, pass ms, ops) of complete passes *)
  let passes = ref [] in
  let gc0 = gc_snap () in
  let rec pass i =
    if now_ns () < t_end then begin
      tracing := cfg.trace && i mod 2 = 1;
      let pass_ms = ref 0. and complete = ref true and n = ref 0 in
      List.iter
        (fun o ->
          if now_ns () >= t_end then complete := false
          else begin
            let verdict, ns =
              match op o.exec with
              | v, ns -> (v, ns)
              | exception e ->
                  Printf.printf "op %s raised %s\n" o.label (Printexc.to_string e);
                  ((fun () -> { ok = false; design_latency = nan }), 0)
            in
            let ms = ms_of_ns ns in
            let v =
              try verdict ()
              with e ->
                Printf.printf "check %s raised %s\n" o.label (Printexc.to_string e);
                { ok = false; design_latency = nan }
            in
            incr ops;
            incr n;
            if not v.ok then incr failed;
            pass_ms := !pass_ms +. ms;
            samples := (o.label, ms, v) :: !samples
          end)
        (next_pass i);
      if !complete then passes := (!tracing, !pass_ms, !n) :: !passes;
      pass (i + 1)
    end
  in
  pass 0;
  tracing := false;
  let gc1 = gc_snap () in
  let elapsed_s = float_of_int (now_ns () - t_start) /. 1e9 in
  let mean_op traced =
    let ps = List.filter (fun (t, _, _) -> t = traced) !passes in
    let ms = List.fold_left (fun a (_, m, _) -> a +. m) 0. ps in
    let n = List.fold_left (fun a (_, _, k) -> a + k) 0 ps in
    if n = 0 then nan else ms /. float_of_int n
  in
  let traced = mean_op true and untraced = mean_op false in
  {
    samples = List.rev !samples;
    elapsed_s;
    ops = !ops;
    failed = !failed;
    gc0;
    gc1;
    peak_mb = peak_heap_mb ();
    overhead_ms = traced -. untraced;
    overhead_share = (traced -. untraced) /. untraced;
  }

(* The end-to-end metrics of a closed loop.  [max_rate_rps] of a single
   closed-loop client is the rate it sustains: its throughput. *)
let end_to_end ~setup_s r =
  let lat = List.map (fun (_, ms, _) -> ms) r.samples in
  let ops = float_of_int r.ops in
  let ops_per_s = ops /. r.elapsed_s in
  let per_label = per_key median (List.map (fun (l, ms, _) -> (l, ms)) r.samples) in
  List.iter (fun (l, ms) -> Printf.printf "  median %-12s %10.3f ms\n" l ms) per_label;
  Printf.printf "latency samples: %d (%d beyond p90, %d beyond p99)\n" r.ops (r.ops / 10)
    (r.ops / 100);
  (* One value per program (its samples are all equal), so the QoR guard
     does not depend on which programs the time cut-off left in. *)
  let design =
    per_key median
      (List.filter_map
         (fun (l, _, v) -> if v.design_latency > 0. then Some (l, v.design_latency) else None)
         r.samples)
  in
  [
    metric "setup_s" "s" setup_s;
    metric "ops_per_s" "1/s" ops_per_s;
    metric "latency_ms_p50" "ms" (quantile lat 0.5);
    metric "latency_ms_p90" "ms" (quantile lat 0.9);
    metric "latency_ms_p99" "ms" (quantile lat 0.99);
    metric "max_rate_rps" "1/s" ops_per_s;
    metric "compile_ms_geomean" "ms" (geomean (List.map snd per_label));
    metric "alloc_mwords_per_op" "Mwords" ((r.gc1.words -. r.gc0.words) /. 1e6 /. ops);
    metric "peak_heap_mb" "MB" r.peak_mb;
    metric "design_latency_cycles_geomean" "cycles" (geomean (List.map snd design));
  ]

let per_layer r =
  Layers.metrics ~gc_ops:r.ops ~gc0:r.gc0 ~gc1:r.gc1 ~overhead_ms:r.overhead_ms
    ~overhead_share:r.overhead_share

(* Print the result line.  [oracle_failed] interpreter checks made after
   the measured loop failed; each counts as a failed op. *)
let report cfg ~setup_s ~oracle_failed r =
  let metrics = if cfg.trace then per_layer r else end_to_end ~setup_s r in
  let finite = List.for_all (fun m -> Float.is_finite m.m_value) metrics in
  let attempted = max 1 r.ops in
  let failed = min attempted (r.failed + oracle_failed) in
  print_result ~cfg ~correct:(finite && failed = 0 && r.ops > 0) ~attempted ~failed metrics
