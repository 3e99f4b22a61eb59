(* The program catalogue every workload draws from: the 7 nn models
   (compiled for the VU9P SLR, as in Table 8) and the 11 PolyBench
   kernels (for the ZU3EG, as in Table 7). *)

open Hida_ir
open Ir
open Hida_estimator
open Hida_frontend

type t = {
  name : string;
  path : [ `Nn | `Memref ];
  device : Device.t;
  build : ?scale:float -> unit -> Ir.op * Ir.op;
}

(* The scale a program's interpreter check runs at: the 0.05 the unit
   tests interpret whole programs at.  vgg16, yolo and zfnet are held to
   their committed digests only: their compiles divide by zero below
   scales 0.15, 0.15 and 0.4, and interpreting their designs at those
   scales takes seconds to tens of seconds. *)
let oracle_scale = function "vgg16" | "yolo" | "zfnet" -> None | _ -> Some 0.05

(* How many of [names] fail their interpreter check [check name scale]. *)
let failing_checks names check =
  List.length
    (List.filter
       (fun n -> match oracle_scale n with Some s -> not (check n s) | None -> false)
       names)

let models =
  List.map
    (fun (e : Models.entry) ->
      { name = e.Models.e_name; path = `Nn; device = Device.vu9p_slr; build = e.Models.e_build })
    Models.all

let kernels =
  List.map
    (fun (e : Polybench.entry) ->
      {
        name = e.Polybench.e_name;
        path = `Memref;
        device = Device.zu3eg;
        build = e.Polybench.e_build;
      })
    Polybench.all

let all = models @ kernels
let by_name n = List.find (fun p -> p.name = n) all

let relus f = Walk.collect f ~pred:(fun o -> Op.name o = "nn.relu")

(* The designer's edit: drop the [k]-th nn.relu (in walk order),
   forwarding its input to its users. *)
let remove_relu k f =
  let rs = relus f in
  let relu = List.nth rs (k mod List.length rs) in
  let v = Op.operand relu 0 in
  List.iter (fun r -> replace_all_uses ~old_value:r ~new_value:v) (Op.results relu);
  erase_op relu

let relu_count name =
  let _m, f = (by_name name).build () in
  List.length (relus f)

let compile ?(opts = Hida_core.Driver.default) p func =
  match p.path with
  | `Nn -> Hida_core.Driver.compile_nn ~opts func
  | `Memref -> Hida_core.Driver.compile_memref ~opts func
