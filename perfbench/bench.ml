(* The repo benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--commit ID]
     bench.exe expect            (print expected.tsv to stdout)

   Workloads: cold-fit, edit-iterate, serve-mix, parallel-dse.  The last
   line of standard output is the JSON result; --trace 0 reports the
   end-to-end metrics, --trace 1 the per-layer ones.  perfbench/run.py
   builds this executable and the server binary and then runs it. *)

let workloads =
  [
    ("cold-fit", Cold_fit.run);
    ("edit-iterate", Edit_iterate.run);
    ("serve-mix", Serve_mix.run);
    ("parallel-dse", Parallel_dse.run);
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--commit ID] | bench.exe expect";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: [ "expect" ] ->
      List.iter print_endline
        (Cold_fit.expect () @ Edit_iterate.expect () @ Parallel_dse.expect ()
       @ Serve_mix.expect ())
  | _ :: args ->
      let rec parse acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let kv = parse [] args in
      let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
      let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let cfg =
        {
          Common.workload = get "workload";
          seed = int_arg "seed";
          seconds = float_of_int (int_arg "seconds");
          trace = int_arg "trace" = 1;
          commit = Option.value ~default:"unknown" (List.assoc_opt "commit" kv);
        }
      in
      (match List.assoc_opt cfg.Common.workload workloads with
      | Some run -> run cfg
      | None ->
          prerr_endline ("bench.exe: unknown workload " ^ cfg.Common.workload);
          exit 2)
  | [] -> usage ()
