(* serve-mix: the compile server under open-loop load.

   A [hida_serve_cli serve] process (2 workers) listens on a Unix socket
   inside the checkout.  This process is the load generator: up to
   [nproc] connection threads, each issuing one [Client.compile] at a
   time.  Threads, not domains: they share one domain, so the generator
   adds no stop-the-world collections of its own to the server's on two
   cores.  Every request has a due time on a fixed schedule and is timed
   from it, so a server that falls behind shows as latency rather than
   as a generator that quietly slowed down.

   The request stream is seeded: most requests hit a hot set warmed
   during set-up; a steady share are fresh keys (seeded kernel variants
   sent as IR text) that run cold compiles; some fresh keys are sent as
   back-to-back identical pairs, which coalesce.

   Phases: the nominal rate, then a closed-loop capacity probe (its
   throughput is the workload's [ops_per_s]), then a step sweep of
   open-loop rates around the probed capacity (see [step_verdict]).

   The traffic is an assumption, not a recorded trace:
   - the mix (80% hot, 10% fresh singles, 10% fresh pairs) and the fresh
     scales (0.25 to 1.0 of each kernel's standard size) are chosen, not
     measured;
   - [nominal_rps] is set well below capacity, so the nominal phase
     measures queueing at a sustainable load rather than a backlog: on a
     2-vCPU x86-64 host the probe measures 1360-1690 rps and the sweep
     1700-1890 rps, and the run prints both;
   - resnet18, mobilenet and vgg16 are left out of the hot set: their
     artifacts are the three largest (156-215 KB of IR against at most
     106 KB for the other programs), so hits on them would time reply
     transfer more than the server. *)

open Hida_ir
open Hida_serve
open Common

let nominal_rps = 300.
let limit_ms = 100.
let server_workers = 2
let opts = Protocol.default_opts

let hot_set =
  [ "lenet"; "mlp"; "zfnet"; "yolo"; "2mm"; "3mm"; "atax"; "bicg"; "correlation";
    "gesummv"; "jacobi-2d"; "mvt"; "seidel-2d"; "symm"; "syr2k" ]

let fresh_scales = [ 0.25; 0.5; 0.75; 1.0 ]

type kind = Hot of string | Fresh of string  (** kernel family *)
type req = { due_ns : int; src : Protocol.source; kind : kind }

type record = {
  r_req : req;
  r_send : int;  (** ns since phase start *)
  r_done : int;
  r_reply : (Protocol.compile_reply, string) result;
}

(* ---- Seeded request stream ----

   Stratified, so every seed sends the same mix in a different order:
   each block of 20 requests is a seeded shuffle of 16 hot requests, 2
   fresh singles and 1 fresh pair; hot keys, kernel families and scales
   are dealt from decks reshuffled every round. *)

type 'a deck = { d_st : Random.State.t; d_items : 'a array; mutable d_next : int }

let deck st items = { d_st = st; d_items = Array.of_list items; d_next = List.length items }

let draw d =
  if d.d_next >= Array.length d.d_items then begin
    let shuffled = Array.of_list (shuffle d.d_st (Array.to_list d.d_items)) in
    Array.blit shuffled 0 d.d_items 0 (Array.length shuffled);
    d.d_next <- 0
  end;
  d.d_next <- d.d_next + 1;
  d.d_items.(d.d_next - 1)

type gen = {
  st : Random.State.t;
  hot : string deck;
  families : string deck;
  scales : float deck;
  mutable fresh_n : int;
  salt : int;
}

let generator cfg =
  let st = rng cfg "serve-mix" in
  {
    st;
    hot = deck st hot_set;
    families = deck st (List.map (fun (p : Programs.t) -> p.Programs.name) Programs.kernels);
    scales = deck st fresh_scales;
    fresh_n = 0;
    salt = cfg.seed;
  }

(* A fresh key: a kernel at one of [fresh_scales], renamed so every
   variant is a distinct source text. *)
let fresh_variant g =
  let p = Programs.by_name (draw g.families) in
  let m, f = p.Programs.build ~scale:(draw g.scales) () in
  g.fresh_n <- g.fresh_n + 1;
  Ir.Op.set_attr f "sym_name"
    (Ir.A_str (Printf.sprintf "%s_v%d_%d" p.Programs.name g.salt g.fresh_n));
  (Protocol.Ir_text (Printer.op_to_string m), Fresh p.Programs.name)

let block = List.init 16 (fun _ -> `Hot) @ [ `Fresh; `Fresh; `Pair ]

(* [n] requests due at [rate] per second (all due at once when [rate]
   is infinite: the closed-loop probe). *)
let stream g ~rate n =
  let gap i = if rate = infinity then 0 else int_of_float (float_of_int i *. 1e9 /. rate) in
  let rec go i acc = function
    | _ when i >= n -> List.rev acc
    | [] -> go i acc (shuffle g.st block)
    | slot :: rest -> (
        let due_ns = gap i in
        match slot with
        | `Hot ->
            let name = draw g.hot in
            go (i + 1) ({ due_ns; src = Protocol.Zoo name; kind = Hot name } :: acc) rest
        | `Fresh ->
            let src, kind = fresh_variant g in
            go (i + 1) ({ due_ns; src; kind } :: acc) rest
        | `Pair ->
            let src, kind = fresh_variant g in
            let r = { due_ns; src; kind } in
            go (i + 2) (r :: r :: acc) rest)
  in
  Array.of_list (go 0 [] [])

(* ---- Generator ---- *)

(* Issue [reqs] over [conns] connection threads; a request is sent at
   its due time or as soon as a connection frees up.  Requests not yet
   taken at [stop_ns] are not sent.  Returns the records, the phase's
   wall seconds and the words the generator allocated during it. *)
let allocated = ref 0.

let run_phase ~socket ~conns ?(stop_ns = max_int) reqs =
  let n = Array.length reqs in
  let next = Atomic.make 0 in
  let out = Array.make n None in
  let g0 = gc_snap () in
  let t0 = now_ns () in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && now_ns () - t0 < stop_ns then begin
        let r = reqs.(i) in
        let wait = r.due_ns - (now_ns () - t0) in
        if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
        let send = now_ns () - t0 in
        let reply = Client.compile ~socket r.src opts in
        let done_ = now_ns () - t0 in
        out.(i) <- Some { r_req = r; r_send = send; r_done = done_; r_reply = reply };
        loop ()
      end
    in
    loop ()
  in
  let ts = List.init (conns - 1) (fun _ -> Thread.create worker ()) in
  worker ();
  List.iter Thread.join ts;
  let elapsed = float_of_int (now_ns () - t0) /. 1e9 in
  allocated := !allocated +. ((gc_snap ()).words -. g0.words);
  (Array.to_list out |> List.filter_map Fun.id, elapsed)

let ok r = Result.is_ok r.r_reply
let latency_ms r = ms_of_ns (r.r_done - r.r_req.due_ns)
let lag_ms r = ms_of_ns (r.r_send - r.r_req.due_ns)
let rtt_ms r = ms_of_ns (r.r_done - r.r_send)
let server_ms r = match r.r_reply with Ok c -> ms_of_ns c.Protocol.cr_server_ns | Error _ -> nan

(* A sweep step meets the limit when every request succeeded, its p99
   from due time is within [limit_ms], and its backlog did not grow: the
   generator's lag over the last quarter of the step's requests is within
   [limit_ms / 2] of the lag over the first quarter. *)
let step_verdict recs =
  let n = List.length recs in
  let lat = List.map latency_ms recs in
  let p99 = quantile lat 0.99 in
  let quarter keep = median (List.map lag_ms (List.filteri (fun i _ -> keep i) recs)) in
  let growth = quarter (fun i -> i >= n - (n / 4)) -. quarter (fun i -> i < n / 4) in
  ( List.for_all ok recs && n >= 8 && p99 <= limit_ms && growth <= limit_ms /. 2.,
    p99,
    growth )

(* ---- Server process ---- *)

type server = { pid : int; socket : string }

let server_exe () =
  Filename.concat (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat "bin" "hida_serve_cli.exe"))

let start_server ~socket =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let exe = server_exe () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--socket"; socket; "--workers"; string_of_int server_workers |]
          null null null)
  in
  let rec await n =
    match Client.ping ~socket with
    | Ok () -> { pid; socket }
    | Error e ->
        if n = 0 then failwith ("serve-mix: server did not come up: " ^ e);
        Unix.sleepf 0.01;
        await (n - 1)
  in
  await 1000

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())

let stop_server s =
  (match Client.stop ~socket:s.socket with
  | Ok () -> ()
  | Error _ -> ( try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] s.pid)

let warm ~socket =
  List.iter
    (fun name ->
      match Client.compile ~socket (Protocol.Zoo name) opts with
      | Ok _ -> ()
      | Error e -> failwith ("serve-mix: warming " ^ name ^ ": " ^ e))
    hot_set

(* ---- Checks ---- *)

let key name = "serve/" ^ name

let expectation ir (meta : Protocol.artifact_meta) =
  {
    Oracle.digest = Oracle.digest ir;
    latency = meta.Protocol.am_latency;
    interval = meta.Protocol.am_interval;
    extra = 0;
  }

(* Every reply is checked: hot keys against the committed cold jobs = 1
   artifacts, fresh keys against a cold jobs = 1 compile of the same
   source made here after the measurement. *)
let verify recs =
  let local = Hashtbl.create 64 in
  let reference src =
    match Hashtbl.find_opt local src with
    | Some a -> a
    | None ->
        Hida_estimator.Qor_cache.clear (Hida_estimator.Qor_cache.global ());
        let a = Artifact.compile src opts in
        Hashtbl.replace local src a;
        a
  in
  List.filter
    (fun r ->
      match (r.r_reply, r.r_req.kind) with
      | Error e, _ ->
          Printf.printf "request failed: %s\n" e;
          true
      | Ok c, Hot name ->
          not (Oracle.check (key name) (expectation c.Protocol.cr_ir c.Protocol.cr_meta))
      | Ok c, Fresh fam -> (
          match reference r.r_req.src with
          | Ok a when a.Artifact.a_ir = c.Protocol.cr_ir -> false
          | _ ->
              Printf.printf "mismatch: served %s variant differs from a local compile\n" fam;
              true))
    recs

(* Interpreter equivalence on the scaled kernel families and hot models. *)
let oracle cfg =
  Programs.failing_checks hot_set (fun name scale ->
      let p = Programs.by_name name in
      Hida_estimator.Qor_cache.clear (Hida_estimator.Qor_cache.global ());
      let ok =
        Oracle.equivalent ~seed:cfg.seed
          ~build:(fun () -> p.Programs.build ~scale ())
          ~compile:(fun build ->
            let _m, f = build () in
            let d =
              {
                Hida_core.Driver.default with
                Hida_core.Driver.max_parallel_factor = opts.Protocol.co_pf;
                tile_size = opts.Protocol.co_tile;
              }
            in
            ignore
              (Hida_core.Driver.finish ~device:(Hida_estimator.Device.by_name opts.Protocol.co_device)
                 (Programs.compile ~opts:d p f) f);
            f)
      in
      if not ok then Printf.printf "oracle: %s differs from its source\n" name;
      ok)

(* ---- Status ---- *)

let status_num path j =
  let rec go j = function
    | [] -> Json.to_float j
    | k :: rest -> Option.bind (Json.member k j) (fun v -> go v rest)
  in
  Option.value ~default:0. (go j path)

let run cfg =
  let g = generator cfg in
  let conns = max 1 (min 4 (Domain.recommended_domain_count ())) in
  let dir = scratch_dir "serve" in
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "s.sock" in
  let server = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter stop_server !server;
      rm_rf dir)
    (fun () ->
      (* Set-up: start the server and warm the hot set; three times, the
         first two servers are stopped again (untimed). *)
      let setup_s, () =
        setup_median 3
          ~reset:(fun () ->
            Option.iter stop_server !server;
            server := None)
          (fun () ->
            server := Some (start_server ~socket);
            warm ~socket)
      in
      let s = Option.get !server in
      let gc0 = gc_snap () in
      allocated := 0.;
      let nominal_s = 0.4 *. cfg.seconds in
      let nominal, _ =
        run_phase ~socket ~conns
          (stream g ~rate:nominal_rps (int_of_float (nominal_rps *. nominal_s)))
      in
      (* The server's peak after the fixed-size nominal phase: the probe
         and the sweep send as many requests as the host can take. *)
      let peak = vm_hwm_mb s.pid in
      (* Capacity probe: closed loop, every connection back to back, for
         [probe_s] or until the prepared requests run out. *)
      let probe_s = 0.1 *. cfg.seconds in
      let probe, probe_elapsed =
        run_phase ~socket ~conns
          ~stop_ns:(int_of_float (probe_s *. 1e9))
          (stream g ~rate:infinity (int_of_float (4000. *. probe_s)))
      in
      let capacity = float_of_int (List.length probe) /. probe_elapsed in
      (* Rate sweep: a ladder from 0.9x the probed capacity in steps of
         0.15x until two steps in a row miss the limit, then two bisection
         steps between the highest step that met it and the next one
         (between 0 and 0.9x when none did). *)
      let step_s = 0.04 *. cfg.seconds in
      let swept = ref [] in
      let step f =
        let rate = f *. capacity in
        let recs, _ =
          run_phase ~socket ~conns (stream g ~rate (max 1 (int_of_float (rate *. step_s))))
        in
        swept := recs @ !swept;
        let pass, p99, growth = step_verdict recs in
        Printf.printf "step %7.1f rps: p99 %8.2f ms, lag growth %8.2f ms, %s\n" rate p99 growth
          (if pass then "meets the limit" else "misses the limit");
        pass
      in
      let rec ladder best f misses =
        if misses >= 2 || f > 2.5 then best
        else if step f then ladder f (f +. 0.15) 0
        else ladder best (f +. 0.15) (misses + 1)
      in
      let rec bisect lo hi n =
        if n = 0 then lo
        else
          let mid = (lo +. hi) /. 2. in
          if step mid then bisect mid hi (n - 1) else bisect lo mid (n - 1)
      in
      let best = ladder 0. 0.9 0 in
      let best = bisect best (if best > 0. then best +. 0.15 else 0.9) 2 in
      let max_rate = best *. capacity in
      let swept = !swept in
      let gc1 = gc_snap () in
      let status =
        match Client.status ~socket with Ok j -> j | Error e -> failwith ("status: " ^ e)
      in
      stop_server s;
      server := None;
      let all = nominal @ probe @ swept in
      let attempted = max 1 (List.length all) in
      let failed = min attempted (List.length (verify all) + oracle cfg) in
      Printf.printf "capacity %.1f rps (closed loop, %d connections), max rate %.1f rps\n"
        capacity conns max_rate;
      let lat = List.map latency_ms nominal in
      Printf.printf "latency samples: %d at %.0f rps (%d beyond p99)\n" (List.length lat)
        nominal_rps (List.length lat / 100);
      let cold =
        List.filter_map
          (fun r ->
            match (r.r_reply, r.r_req.kind) with
            | Ok c, Fresh fam when (not c.Protocol.cr_cached) && not c.Protocol.cr_coalesced ->
                Some (fam, server_ms r)
            | _ -> None)
          all
      in
      let design =
        List.filter_map
          (fun r ->
            match r.r_reply with
            | Ok c -> Some (float_of_int c.Protocol.cr_meta.Protocol.am_latency)
            | Error _ -> None)
          nominal
      in
      let metrics =
        if not cfg.trace then
          [
            metric "setup_s" "s" setup_s;
            metric "ops_per_s" "1/s" capacity;
            metric "latency_ms_p50" "ms" (quantile lat 0.5);
            metric "latency_ms_p90" "ms" (quantile lat 0.9);
            metric "latency_ms_p99" "ms" (quantile lat 0.99);
            metric "max_rate_rps" "1/s" max_rate;
            metric "compile_ms_geomean" "ms" (geomean (List.map snd (per_key median cold)));
            metric "alloc_mwords_per_op" "Mwords"
              (!allocated /. 1e6 /. float_of_int (List.length all));
            metric "peak_heap_mb" "MB" peak;
            metric "design_latency_cycles_geomean" "cycles" (geomean design);
          ]
        else begin
          (* A request's wall time from due to done splits exactly into
             the generator's lag, the server's handling time and the
             transport around it (client framing, JSON, socket), so the
             ledger leaves nothing unattributed. *)
          List.iter
            (fun r ->
              op_wall_ns := !op_wall_ns + (r.r_done - r.r_req.due_ns);
              incr op_count)
            nominal;
          let set n v = Hashtbl.replace Layers.serve_values n v in
          let q xs p = quantile xs p in
          let rtt = List.map rtt_ms nominal and srv = List.map server_ms (List.filter ok nominal) in
          set "serve.rtt_ms_p50" (q rtt 0.5);
          set "serve.rtt_ms_p99" (q rtt 0.99);
          set "serve.server_ms_p50" (q srv 0.5);
          set "serve.server_ms_p99" (q srv 0.99);
          set "serve.transport_ms_p50"
            (q (List.map (fun r -> rtt_ms r -. server_ms r) (List.filter ok nominal)) 0.5);
          set "serve.hit_ratio"
            (let hits =
               List.length
                 (List.filter
                    (fun r -> match r.r_reply with Ok c -> c.Protocol.cr_cached | _ -> false)
                    all)
             in
             float_of_int hits /. float_of_int (max 1 (List.length all)));
          set "serve.coalesced" (status_num [ "coalesced" ] status);
          set "serve.cold_ms_p50" (status_num [ "latency"; "cold"; "p50_ns" ] status /. 1e6);
          set "serve.hit_ms_p50" (status_num [ "latency"; "hit"; "p50_ns" ] status /. 1e6);
          set "serve.queue_depth_max" (status_num [ "queue"; "max_depth" ] status);
          set "serve.busy_rejections" (status_num [ "queue"; "rejected" ] status);
          set "serve.generator_lag_ms_p99" (q (List.map lag_ms nominal) 0.99);
          set "artifact.evictions" (status_num [ "cache"; "evictions" ] status);
          Layers.metrics ~gc_ops:(List.length all) ~gc0 ~gc1 ~overhead_ms:0. ~overhead_share:0.
        end
      in
      let finite = List.for_all (fun m -> Float.is_finite m.m_value) metrics in
      print_result ~cfg ~correct:(finite && failed = 0 && all <> []) ~attempted ~failed metrics)

let expect () =
  List.map
    (fun name ->
      Hida_estimator.Qor_cache.clear (Hida_estimator.Qor_cache.global ());
      match Artifact.compile (Protocol.Zoo name) opts with
      | Ok a -> Oracle.line (key name) (expectation a.Artifact.a_ir a.Artifact.a_meta)
      | Error e -> failwith e)
    hot_set
