(* Output oracles that do not trust the compiler under test.

   1. Interpreter equivalence: a scaled variant of a program (the scales
      the unit tests use) runs in the reference interpreter before and
      after compilation, on seeded inputs; every memref argument and
      returned value must agree.
   2. Committed expectations: expected.tsv holds, per program and
      option point, the MD5 of the design's canonical IR text as a cold
      [jobs = 1] compile prints it, plus its QoR.  Served, incremental
      and [jobs = 2] outputs are compared against it byte for byte
      (through the digest).  [bench.exe expect] regenerates the file. *)

open Hida_interp

let flatten rt =
  match rt with
  | Interp.Buf b -> Array.to_list (Array.map Interp.scalar_to_float b.Interp.data)
  | Interp.Scalar s -> [ Interp.scalar_to_float s ]
  | Interp.Chan _ -> []

let observe ~seed func =
  let args = Interp.fresh_args ~seed func in
  let results = Interp.run_func func ~args in
  List.concat_map flatten args @ List.concat_map flatten results

let floats_close ?(tol = 1e-2) a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y -> Float.abs (x -. y) <= tol *. (1. +. Float.abs x +. Float.abs y))
       a b

(* [build] makes a fresh (module, function) pair; [compile] compiles one
   in place or returns the compiled design. *)
let equivalent ~seed ~build ~compile =
  match
    let _m, src = build () in
    let reference = observe ~seed src in
    let design = compile build in
    floats_close reference (observe ~seed design)
  with
  | ok -> ok
  | exception e ->
      Printf.printf "oracle: %s\n" (Printexc.to_string e);
      false

(* ---- Committed expectations ---- *)

type expect = { digest : string; latency : int; interval : int; extra : int }

let expected_file = Filename.concat "perfbench" "expected.tsv"
let digest text = Digest.to_hex (Digest.string text)

let load () =
  let tbl = Hashtbl.create 128 in
  let ic = open_in expected_file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          match String.split_on_char '\t' (input_line ic) with
          | [ key; digest; lat; intv; extra ] ->
              Hashtbl.replace tbl key
                {
                  digest;
                  latency = int_of_string lat;
                  interval = int_of_string intv;
                  extra = int_of_string extra;
                }
          | _ -> ()
        done
      with End_of_file -> ());
  tbl

let table = lazy (load ())

(* True when [key] is expected and every field matches. *)
let check key e =
  match Hashtbl.find_opt (Lazy.force table) key with
  | Some x when x = e -> true
  | Some x ->
      Printf.printf "mismatch %s: got %s/%d/%d/%d, expected %s/%d/%d/%d\n" key
        e.digest e.latency e.interval e.extra x.digest x.latency x.interval
        x.extra;
      false
  | None ->
      Printf.printf "mismatch %s: no expectation\n" key;
      false

let line key e =
  Printf.sprintf "%s\t%s\t%d\t%d\t%d" key e.digest e.latency e.interval e.extra
