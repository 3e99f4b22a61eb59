(* Shared pieces of the benchmark: run configuration, statistics, the
   allocation counters, the per-layer wall-time ledger and the result
   line.

   The ledger records spans only around calls into the compiler's public
   functions, made from this directory's own code.  Every span keeps its
   self time (its wall time minus the spans nested in it), so for each op
   the layer self times plus an [unattributed] bucket add up to the op's
   wall time exactly.  All times are wall nanoseconds on the calling
   domain: a layer that fans work out to other domains is charged the
   wall time the caller waited, never the summed slot time. *)

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  commit : string;
}

let now_ns = Hida_obs.Clock.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6

(* ---- Statistics ---- *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile xs q =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

(* Group (key, value) samples and reduce each group with [f]. *)
let per_key f samples =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    samples;
  Hashtbl.fold (fun k vs acc -> (k, f vs) :: acc) tbl []
  |> List.sort compare

(* ---- Allocation (Gc.quick_stat deltas) ---- *)

type gc_snap = { words : float; minor_gcs : int; major_gcs : int }

(* Minor plus major words; promoted words are in both, so they are
   counted once. *)
let gc_snap () =
  let s = Gc.quick_stat () in
  {
    words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
  }

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. (1024. *. 1024.)

(* ---- Ledger ---- *)

type layer = { mutable self_ns : int; mutable alloc_words : float }

let tracing = ref false
let layers : (string, layer) Hashtbl.t = Hashtbl.create 16

(* Child-time accumulators of the open spans, innermost first. *)
let stack : int ref list ref = ref []
let op_wall_ns = ref 0
let op_unattributed_ns = ref 0
let op_count = ref 0

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
      let l = { self_ns = 0; alloc_words = 0. } in
      Hashtbl.replace layers name l;
      l

let close_span t0 child =
  let dt = now_ns () - t0 in
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  (match !stack with parent :: _ -> parent := !parent + dt | [] -> ());
  dt - !child

(* [span name f]: charge [f]'s self time and inclusive allocation to the
   layer [name].  Free when tracing is off. *)
let span name f =
  if not !tracing then f ()
  else begin
    let g0 = gc_snap () in
    let child = ref 0 in
    stack := child :: !stack;
    let t0 = now_ns () in
    let finally () =
      let self = close_span t0 child in
      let l = layer name in
      l.self_ns <- l.self_ns + self;
      l.alloc_words <- l.alloc_words +. ((gc_snap ()).words -. g0.words)
    in
    Fun.protect ~finally f
  end

(* [op f]: one measured operation.  Returns [f]'s result and the op's
   wall time in ns; when tracing, the part of the wall time no span
   claimed goes to the unattributed bucket. *)
let op f =
  let child = ref 0 in
  if !tracing then stack := child :: !stack;
  let t0 = now_ns () in
  let finally () =
    if !tracing then begin
      let self = close_span t0 child in
      op_wall_ns := !op_wall_ns + (self + !child);
      op_unattributed_ns := !op_unattributed_ns + self;
      incr op_count
    end
  in
  let r = Fun.protect ~finally f in
  (r, now_ns () - t0)

let layer_ms_per_op name =
  match Hashtbl.find_opt layers name with
  | Some l when !op_count > 0 -> ms_of_ns l.self_ns /. float_of_int !op_count
  | _ -> 0.

let layer_mwords_per_op name =
  match Hashtbl.find_opt layers name with
  | Some l when !op_count > 0 -> l.alloc_words /. 1e6 /. float_of_int !op_count
  | _ -> 0.

(* ---- Counters read from the compiler ---- *)

(* Summed per-layer counters (dse points, cache probes, pool tasks ...)
   reported per op. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

let count name v =
  if !tracing then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

(* ---- Output ---- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* The result: human-readable lines, then exactly one JSON line last. *)
let print_result ~cfg ~correct ~attempted ~failed metrics =
  let open Hida_serve.Json in
  let provenance =
    Obj
      [
        ("workload", Str cfg.workload);
        ("seed", Int cfg.seed);
        ("seconds", Float cfg.seconds);
        ("trace", Bool cfg.trace);
        ("commit", Str cfg.commit);
        ( "host",
          Obj
            [
              ("nproc", Int (Domain.recommended_domain_count ()));
              (* the calling domain plus the pool's live workers *)
              ("domains", Int (1 + (Hida_core.Domain_pool.stats ()).Hida_core.Domain_pool.st_live));
              ("ocaml", Str Sys.ocaml_version);
            ] );
      ]
  in
  Printf.printf "provenance %s\n" (to_string provenance);
  Printf.printf "error_rate %.6f (%d failed of %d attempted)\n"
    (if attempted = 0 then 1. else float_of_int failed /. float_of_int attempted)
    failed attempted;
  List.iter
    (fun m -> Printf.printf "  %-36s %16.6f %s\n" m.m_name m.m_value m.m_unit)
    metrics;
  let num v = if Float.is_finite v then Float v else Null in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int attempted);
            ("failed", Int failed);
            ( "metrics",
              Obj
                (List.map
                   (fun m ->
                     (m.m_name, Obj [ ("value", num m.m_value); ("unit", Str m.m_unit) ]))
                   metrics) );
          ]))

(* ---- Seeded generation ---- *)

let rng cfg salt = Random.State.make [| cfg.seed; Hashtbl.hash salt |]

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---- Scratch space inside the checkout ---- *)

let run_dir = ".bench_run"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let scratch_dir name =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let d = Filename.concat run_dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf d;
  d

(* Median of [n] timed repetitions of [f]; [reset] runs untimed before
   every repetition but the first.  The last repetition's result is
   kept. *)
let setup_median ?(reset = ignore) n f =
  let rec go i times last =
    if i = n then (median times, Option.get last)
    else begin
      if i > 0 then reset ();
      let t0 = Unix.gettimeofday () in
      let r = f () in
      go (i + 1) ((Unix.gettimeofday () -. t0) :: times) (Some r)
    end
  in
  go 0 [] None
