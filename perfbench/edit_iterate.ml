(* edit-iterate: a designer's loop over resnet18 and mobilenet at
   parallel factor 512, one new --incr-cache process per edit.  One op:
     1. [Blob_store.load] the base store (both unedited models compiled
        in set-up) from its scratch directory into a fresh store put
        behind a cleared Qor_cache;
     2. build the model with one seeded edit (the k-th nn.relu removed);
     3. compile it ([compile_nn] + [finish]);
     4. [Blob_store.save] the store to a second scratch directory;
     5. [Sim.compile] + [run_compiled] the design for 2048 frames.
   Every op starts from the same base store, so an op is one edit against
   the unedited models however many ops ran before it.  Each pass is one
   op per model, with seeded edits. *)

open Hida_ir
open Hida_estimator
open Hida_hlssim
open Common

let models = [ "resnet18"; "mobilenet" ]
let opts = { Hida_core.Driver.default with Hida_core.Driver.max_parallel_factor = 512 }
let frames = 2048
let key name k = Printf.sprintf "edit/%s/%d" name k

let edited (p : Programs.t) ?scale k () =
  let m, f = p.Programs.build ?scale () in
  Programs.remove_relu k f;
  (m, f)

let simulate (p : Programs.t) design =
  let sched =
    match Ir.Walk.collect design ~pred:Hida_dialects.Hida_d.is_schedule with
    | s :: _ -> s
    | [] -> failwith "edit-iterate: design has no dataflow schedule"
  in
  let c =
    span "sim.compile" (fun () ->
        let nodes, buffers = Sim_ir.of_schedule p.Programs.device sched in
        Sim.compile nodes buffers)
  in
  let r = span "sim.run" (fun () -> Sim.run_compiled ~frames ~trace:false c) in
  count "sim.frames" (float_of_int frames);
  r

let expectation (rep : Hida_core.Driver.report) (sim : Sim.result) =
  {
    Oracle.digest = Oracle.digest (Printer.op_to_string rep.Hida_core.Driver.design);
    latency = rep.Hida_core.Driver.estimate.Qor.d_latency;
    interval = rep.Hida_core.Driver.estimate.Qor.d_interval;
    extra = sim.Sim.r_total_cycles;
  }

let load ~dir =
  let store = Blob_store.create () in
  match Blob_store.load store ~dir with
  | Ok n when n > 0 -> store
  | Ok _ -> failwith ("Blob_store.load: no entries in " ^ dir)
  | Error e -> failwith ("Blob_store.load: " ^ e)

let save store ~dir =
  match Blob_store.save store ~dir with
  | Ok _ -> ()
  | Error e -> failwith ("Blob_store.save: " ^ e)

let op ~base ~dir name k =
  let p = Programs.by_name name in
  let exec () =
    let store = span "blob_store.load" (fun () -> load ~dir:base) in
    span "qor_cache.reset" (fun () ->
        let g = Qor_cache.global () in
        Qor_cache.set_backing g (Some store);
        Qor_cache.clear g);
    let _m, f = span "frontend.build" (edited p k) in
    let rep = Layers.with_cache_counters (fun () -> Layers.compile_and_finish ~opts p f) in
    span "blob_store.save" (fun () -> save store ~dir);
    let s = span "blob_store.stats" (fun () -> Blob_store.stats store) in
    count "blob_store.entries" (float_of_int s.Blob_store.s_entries);
    count "blob_store.bytes" (float_of_int s.Blob_store.s_bytes);
    count "blob_store.evictions" (float_of_int s.Blob_store.s_evictions);
    let sim = simulate p rep.Hida_core.Driver.design in
    fun () ->
      {
        Closed.ok = Oracle.check (key name k) (expectation rep sim);
        design_latency = float_of_int rep.Hida_core.Driver.estimate.Qor.d_latency;
      }
  in
  { Closed.label = name; exec }

(* The base store: both unedited models compiled into it, saved to
   [base]. *)
let warm_store ~base =
  rm_rf base;
  let store = Blob_store.create () in
  let g = Qor_cache.global () in
  Qor_cache.set_backing g (Some store);
  List.iter
    (fun name ->
      Qor_cache.clear g;
      let p = Programs.by_name name in
      let _m, f = p.Programs.build () in
      ignore (Hida_core.Driver.finish ~device:p.Programs.device (Programs.compile ~opts p f) f))
    models;
  Qor_cache.set_backing g None;
  save store ~dir:base

let oracle cfg edits =
  Qor_cache.set_backing (Qor_cache.global ()) None;
  List.length @@ List.filter
    (fun (name, k) ->
      let p = Programs.by_name name in
      Qor_cache.clear (Qor_cache.global ());
      let ok =
        Oracle.equivalent ~seed:cfg.seed
          ~build:(edited p ?scale:(Programs.oracle_scale name) k)
          ~compile:(fun build ->
            let _m, f = build () in
            ignore (Hida_core.Driver.finish ~device:p.Programs.device (Programs.compile ~opts p f) f);
            f)
      in
      if not ok then Printf.printf "oracle: %s differs from its source\n" (key name k);
      not ok)
    edits

let run cfg =
  let st = rng cfg "edit-iterate" in
  let counts = List.map (fun n -> (n, Programs.relu_count n)) models in
  let base = scratch_dir "edit-base" and dir = scratch_dir "edit-store" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf base;
      rm_rf dir)
    (fun () ->
      let setup_s, () = setup_median 3 (fun () -> warm_store ~base) in
      let edits = ref [] in
      let r =
        Closed.run cfg ~next_pass:(fun _ ->
            List.map
              (fun name ->
                let k = Random.State.int st (List.assoc name counts) in
                if not (List.mem (name, k) !edits) then edits := (name, k) :: !edits;
                op ~base ~dir name k)
              models)
      in
      Qor_cache.set_backing (Qor_cache.global ()) None;
      (* The interpreter check covers the run's first six distinct edits
         (each costs ~0.15 s); every op is held to its digest. *)
      let oracle_failed = oracle cfg (List.filteri (fun i _ -> i < 6) (List.rev !edits)) in
      Closed.report cfg ~setup_s ~oracle_failed r)

let expect () =
  let g = Qor_cache.global () in
  Qor_cache.set_backing g None;
  List.concat_map
    (fun name ->
      let p = Programs.by_name name in
      List.init (Programs.relu_count name) (fun k ->
          Qor_cache.clear g;
          let _m, f = edited p k () in
          let rep = Hida_core.Driver.finish ~device:p.Programs.device (Programs.compile ~opts p f) f in
          Oracle.line (key name k) (expectation rep (simulate p rep.Hida_core.Driver.design))))
    models
