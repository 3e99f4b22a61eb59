(* parallel-dse: the domain pool.  One op is a cold [Driver.run_nn] at
   parallel factor 512 with jobs = 2 (the per-node DSE fanned out over
   Domain_pool batches by Parallelize) on a freshly built model.  Each
   pass is a seeded permutation of five models.  The design must be
   byte-identical to the committed cold jobs = 1 compile. *)

open Hida_estimator
open Common

let models = [ "resnet18"; "mobilenet"; "vgg16"; "yolo"; "zfnet" ]
let jobs = 2

let opts jobs =
  { Hida_core.Driver.default with Hida_core.Driver.max_parallel_factor = 512; jobs }

let key name = "dse/" ^ name

let expectation (rep : Hida_core.Driver.report) =
  {
    Oracle.digest = Oracle.digest (Hida_ir.Printer.op_to_string rep.Hida_core.Driver.design);
    latency = rep.Hida_core.Driver.estimate.Qor.d_latency;
    interval = rep.Hida_core.Driver.estimate.Qor.d_interval;
    extra = 0;
  }

let cold_compile ~jobs (p : Programs.t) build =
  let g = Qor_cache.global () in
  Qor_cache.set_backing g None;
  Qor_cache.clear g;
  let _m, f = build () in
  Layers.with_cache_counters (fun () -> Layers.compile_and_finish ~opts:(opts jobs) p f)

let op name =
  let p = Programs.by_name name in
  let exec () =
    let rep =
      cold_compile ~jobs p (fun () -> span "frontend.build" (fun () -> p.Programs.build ()))
    in
    fun () ->
      {
        Closed.ok = Oracle.check (key name) (expectation rep);
        design_latency = float_of_int rep.Hida_core.Driver.estimate.Qor.d_latency;
      }
  in
  { Closed.label = name; exec }

let oracle cfg =
  Programs.failing_checks models (fun name scale ->
      let p = Programs.by_name name in
      let ok =
        Oracle.equivalent ~seed:cfg.seed
          ~build:(fun () -> p.Programs.build ~scale ())
          ~compile:(fun build -> (cold_compile ~jobs p build).Hida_core.Driver.design)
      in
      if not ok then Printf.printf "oracle: %s differs from its source\n" name;
      ok)

let run cfg =
  let st = rng cfg "parallel-dse" in
  (* Set-up: build the inputs and warm the pool with parallel compiles
     of the two smallest models (the pool's worker domains are spawned on
     the first one). *)
  let setup_s, () =
    setup_median 5 (fun () ->
        List.iter (fun n -> ignore ((Programs.by_name n).Programs.build ())) models;
        List.iter
          (fun n ->
            let p = Programs.by_name n in
            ignore (cold_compile ~jobs p (fun () -> p.Programs.build ())))
          [ "zfnet"; "yolo" ])
  in
  let r = Closed.run cfg ~next_pass:(fun _ -> List.map op (shuffle st models)) in
  Closed.report cfg ~setup_s ~oracle_failed:(oracle cfg) r

let expect () =
  List.map
    (fun name ->
      let p = Programs.by_name name in
      Oracle.line (key name) (expectation (cold_compile ~jobs:1 p (fun () -> p.Programs.build ()))))
    models
