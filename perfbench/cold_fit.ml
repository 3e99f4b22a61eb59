(* cold-fit: the compiler alone.  One op is [Driver.fit] (the --fit
   maximum-parallel-factor search) on a freshly built program with a
   cleared, store-less Qor_cache, then the printer and the C++ emitter on
   the chosen design.  Each pass is a seeded permutation of the 7 models
   and 11 PolyBench kernels. *)

open Hida_estimator
open Common

let key (p : Programs.t) = "fit/" ^ p.Programs.name

let expectation (rep : Hida_core.Driver.report) ir =
  {
    Oracle.digest = Oracle.digest ir;
    latency = rep.Hida_core.Driver.estimate.Qor.d_latency;
    interval = rep.Hida_core.Driver.estimate.Qor.d_interval;
    extra = 0;
  }

let op (p : Programs.t) =
  let exec () =
    let g = Qor_cache.global () in
    Qor_cache.set_backing g None;
    Qor_cache.clear g;
    let build () = span "frontend.build" (fun () -> p.Programs.build ()) in
    let rep, shape = Layers.with_cache_counters (fun () -> Layers.fit p build) in
    let design = rep.Hida_core.Driver.design in
    let ir = span "printer" (fun () -> Hida_ir.Printer.op_to_string design) in
    let cpp = span "emit_cpp" (fun () -> Hida_emitter.Emit_cpp.emit_func design) in
    count "printer.bytes" (float_of_int (String.length ir));
    count "emit_cpp.bytes" (float_of_int (String.length cpp));
    count "ir.ops_after" (float_of_int (Layers.ops_after rep));
    fun () ->
      let same_result = Oracle.check (key p) (expectation rep ir) in
      let same_search = Layers.check_shape p shape in
      {
        Closed.ok = same_result && same_search;
        design_latency = float_of_int rep.Hida_core.Driver.estimate.Qor.d_latency;
      }
  in
  { Closed.label = p.Programs.name; exec }

(* Scaled variant of every program: interpret the source and the design
   [Driver.fit] chooses for it. *)
let oracle cfg =
  Programs.failing_checks
    (List.map (fun (p : Programs.t) -> p.Programs.name) Programs.all)
    (fun name scale ->
      let p = Programs.by_name name in
      Qor_cache.clear (Qor_cache.global ());
      let ok =
        Oracle.equivalent ~seed:cfg.seed
          ~build:(fun () -> p.Programs.build ~scale ())
          ~compile:(fun build ->
            (Hida_core.Driver.fit ~device:p.Programs.device ~path:p.Programs.path
               build)
              .Hida_core.Driver.design)
      in
      if not ok then Printf.printf "oracle: %s differs from its source\n" name;
      ok)

let run cfg =
  let st = rng cfg "cold-fit" in
  (* Set-up: build every program once and warm the compiler with a fit
     of each kernel and of the three smallest models. *)
  let setup_s, () =
    setup_median 5 (fun () ->
        List.iter
          (fun (p : Programs.t) ->
            let _m, f = p.Programs.build () in
            if p.Programs.path = `Memref || List.mem p.Programs.name [ "lenet"; "mlp"; "zfnet" ] then begin
              Qor_cache.clear (Qor_cache.global ());
              ignore
                (Hida_core.Driver.fit ~device:p.Programs.device ~path:p.Programs.path (fun () ->
                     p.Programs.build ()))
            end)
          Programs.all)
  in
  let r =
    Closed.run cfg ~next_pass:(fun _ -> List.map op (shuffle st Programs.all))
  in
  Closed.report cfg ~setup_s ~oracle_failed:(oracle cfg) r

let expect () =
  List.map
    (fun (p : Programs.t) ->
      Qor_cache.set_backing (Qor_cache.global ()) None;
      Qor_cache.clear (Qor_cache.global ());
      let rep =
        Hida_core.Driver.fit ~device:p.Programs.device ~path:p.Programs.path (fun () ->
            p.Programs.build ())
      in
      Oracle.line (key p)
        (expectation rep (Hida_ir.Printer.op_to_string rep.Hida_core.Driver.design)))
    Programs.all
