(* One problem, four runtimes.  Every workload computes the sum of
   Euler's totient over [1..n]; they differ only in the runtime that
   runs it:

     gph-sumeuler        sparks and strategies on a 2-domain Pool
     fiber-sumeuler      divide and conquer with Fiber.spawn/join
     eden-sock-sumeuler  Farm.run over the socketpair star, 2 PEs
     eden-shm-sumeuler   Farm.run over shm rings, 2 PEs

   A run sets up several times (median reported as setup_s), then times
   solves back to back in a closed loop with samples of a plain-loop
   sequential baseline interleaved.  The gated time metric is core time
   (every domain and every PE) over the baseline, which neither a
   neighbour on the shared cores nor the host's speed moves much; wall
   time is printed and recorded.  With --trace 1
   it then makes a traced pass: rounds that solve the same n
   sequentially, at one worker and at two, with spans around each call
   and metric deltas around the 2-worker solves, from which it builds
   the workload's core-time ledger.  The last line of stdout is the
   JSON result. *)

open Perfbench_core
module Pool = Repro_exec.Pool
module Harness = Repro_exec.Harness
module Euler = Repro_workloads.Euler
module Fiber = Repro_fiber.Fiber
module Farm = Repro_dist.Farm
module Msg = Repro_dist.Message
module M = Repro_metrics.Metrics
module Hdr = Repro_metrics.Hdr
module J = Repro_util.Json_out

let now_ns = M.now_ns

(* Core time of this process and of its reaped children (the farm's
   PEs), in ms. *)
let cpu_ms () =
  let t = Unix.times () in
  (t.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime) *. 1e3

let ms_of_ns ns = float_of_int ns /. 1e6

(* ---------------- the problem ---------------- *)

let base_n = 300_000

(* The seed shifts n uniformly within +-1 %. *)
let size_of_seed seed =
  let spread = base_n / 100 in
  let st = Random.State.make [| 0x5eed; seed |] in
  base_n - spread + Random.State.int st ((2 * spread) + 1)

(* The sequential baseline: a plain loop, no list, no memo table. *)
let seq_sum lo hi =
  let s = ref 0 in
  for k = lo to hi do
    s := !s + Euler.phi_fast k
  done;
  !s

let exec_sumeuler = Option.get (Repro_exec.Workload.find "sumeuler")

let dist_sumeuler = Option.get (Repro_dist.Workload.find "sumeuler")

(* ---------------- the runtimes ---------------- *)

(* A live runtime at a fixed worker count, reused across solves. *)
type runtime = { solve : int -> int; close : unit -> unit }

type workload = {
  name : string;
  layer : string;  (** prefix of the workload's ledger terms *)
  transport : string option;
  open_runtime : workers:int -> runtime;
  unpooled : (int -> int) option;
      (** the parallel program outside any pool (its decomposition
          alone), when the runtime degrades to that *)
}

let pooled ~workers run =
  let pool = Pool.create ~cores:workers () in
  { solve = run pool; close = (fun () -> Pool.shutdown pool) }

let gph =
  let (module W : Repro_exec.Workload.S) = exec_sumeuler in
  {
    name = "gph-sumeuler";
    layer = "pool";
    transport = None;
    open_runtime =
      (fun ~workers ->
        pooled ~workers (fun pool n -> Pool.run pool (fun () -> W.run ~size:n ())));
    unpooled = Some (fun n -> W.run ~size:n ());
  }

(* Leaves of at most [fiber_leaf] numbers run the plain loop; every
   inner node spawns its left half and joins it. *)
let fiber_leaf = 4

let rec fiber_sum lo hi =
  if hi - lo < fiber_leaf then seq_sum lo hi
  else
    let mid = lo + ((hi - lo) / 2) in
    let left = Fiber.spawn (fun () -> fiber_sum lo mid) in
    let right = fiber_sum (mid + 1) hi in
    right + Fiber.join left

(* Scheduler counters of the latest fiber solve, read by the root. *)
let last_fiber_stats : Fiber.stats option ref = ref None

let fiber =
  {
    name = "fiber-sumeuler";
    layer = "fiber";
    transport = None;
    open_runtime =
      (fun ~workers ->
        pooled ~workers (fun pool n ->
            Fiber.run_in pool (fun () ->
                let v = fiber_sum 1 n in
                last_fiber_stats := Some (Fiber.stats ());
                v)));
    unpooled = None;
  }

let last_outcome : Farm.outcome option ref = ref None

(* Farm.run spawns its PEs on every call, so the runtime holds no
   state between solves. *)
let eden name transport =
  {
    name;
    layer = "farm";
    transport = Some (Farm.transport_name transport);
    open_runtime =
      (fun ~workers ->
        {
          solve =
            (fun n ->
              let o = Farm.run ~transport ~procs:workers ~size:n dist_sumeuler in
              last_outcome := Some o;
              o.Farm.result);
          close = ignore;
        });
    unpooled = None;
  }

let workloads =
  [
    gph;
    fiber;
    eden "eden-sock-sumeuler" Farm.Sock;
    eden "eden-shm-sumeuler" Farm.Shm;
  ]

(* ---------------- environment ---------------- *)

let read_file path =
  try In_channel.with_open_text path In_channel.input_all with Sys_error _ -> ""

let loadavg () = String.trim (read_file "/proc/loadavg")

(* VmHWM of this process, in MiB. *)
let peak_rss_mb () =
  String.split_on_char '\n' (read_file "/proc/self/status")
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
         | _ -> None)
  |> Option.value ~default:0.

(* ---------------- reference and set-up ---------------- *)

(* The plain loop must agree with every library reference for this n. *)
let cross_check n =
  let (module We : Repro_exec.Workload.S) = exec_sumeuler in
  let (module Wd : Repro_dist.Workload.S) = dist_sumeuler in
  let loop = seq_sum 1 n in
  let refs =
    [
      ("Euler.sum_euler_ref", Euler.sum_euler_ref n);
      ("exec reference", We.reference ~size:n);
      ("dist reference", Wd.reference ~size:n);
    ]
  in
  let bad = List.filter (fun (_, v) -> v <> loop) refs in
  List.iter
    (fun (name, v) -> Printf.printf "reference mismatch: %s = %d, plain loop = %d\n" name v loop)
    bad;
  (loop, bad = [])

(* One set-up: the reference check, the runtime's creation (or, for
   the farm, the first PE spawn inside the warm-up) and one verified
   warm-up solve.  Returns the live runtime and the time taken. *)
let set_up w n ~expected =
  let t0 = now_ns () in
  if seq_sum 1 n <> expected then failwith "set-up: baseline disagrees";
  let rt = w.open_runtime ~workers:2 in
  let v = rt.solve n in
  let dt = now_ns () - t0 in
  if v <> expected then begin
    rt.close ();
    failwith (Printf.sprintf "set-up: warm-up gave %d, expected %d" v expected)
  end;
  (rt, float_of_int dt *. 1e-9)

let setups = 3

(* Enough verified solves for a median; the loop runs past --seconds
   until it has them, but not past [max_loop_s]. *)
let min_solves = 30
let max_loop_s = 100.

(* One baseline sample before the first solve and after every fourth. *)
let baseline_every = 4

(* ---------------- traced pass ---------------- *)

let traced_rounds = 7

let metric_delta before after name = M.total after name -. M.total before name

(* Histogram of [name] recorded between two snapshots. *)
let hist_delta before after name =
  let b = M.hist_total before name and a = M.hist_total after name in
  let prior = Hashtbl.create 64 in
  List.iter (fun (i, c) -> Hashtbl.replace prior i c) b.Hdr.buckets;
  let buckets =
    List.filter_map
      (fun (i, c) ->
        let d = c - Option.value ~default:0 (Hashtbl.find_opt prior i) in
        if d > 0 then Some (i, d) else None)
      a.Hdr.buckets
  in
  { a with Hdr.buckets; count = a.count - b.count; sum = a.sum - b.sum }

(* Per-solve tallies of the 2-worker solves, summed over rounds. *)
type tally = (string, float) Hashtbl.t

let add (t : tally) k v =
  Hashtbl.replace t k (v +. Option.value ~default:0. (Hashtbl.find_opt t k))

let get (t : tally) k = Option.value ~default:0. (Hashtbl.find_opt t k)

let snapshot_counts tally before after =
  List.iter
    (fun (key, name, scale) -> add tally key (metric_delta before after name /. scale))
    [
      ("pool.sparks_created", "repro_pool_sparks_created_total", 1.);
      ("pool.sparks_fizzled", "repro_pool_sparks_fizzled_total", 1.);
      ("pool.steal_attempts", "repro_steal_attempts_total", 1.);
      ("pool.steals", "repro_steals_total", 1.);
      ("pool.parks", "repro_pool_parks_total", 1.);
      ("pool.wakeups", "repro_pool_wakeups_total", 1.);
      ("future.forces", "repro_future_forces_total", 1.);
      ("gc.minor_collections", "repro_gc_minor_collections", 1.);
      ("gc.major_collections", "repro_gc_major_collections", 1.);
      ("gc.minor_mwords", "repro_gc_minor_words", 1e6);
      ("gc.promoted_mwords", "repro_gc_promoted_words", 1e6);
      ("shm_ring.backpressure_waits", "repro_ring_backpressure_waits_total", 1.);
      ("shm_ring.doorbells", "repro_ring_doorbell_rings_total", 1.);
    ]

let fiber_counts tally (s : Fiber.stats) =
  add tally "fiber.spawned" (float_of_int s.s_spawned);
  add tally "fiber.suspends" (float_of_int s.s_suspends);
  add tally "fiber.resumes" (float_of_int s.s_resumes);
  add tally "fiber.high_water" (float_of_int s.s_high_water)

let farm_counts tally (o : Farm.outcome) =
  let f = float_of_int in
  let pes g = Array.fold_left (fun a (r : Farm.pe_report) -> a + g r.stats) 0 o.reports in
  let pe_metric name =
    Array.fold_left
      (fun a (r : Farm.pe_report) -> a +. M.total r.stats.Msg.metrics name)
      0. o.reports
  in
  List.iter
    (fun (k, v) -> add tally k v)
    [
      ("farm.spawn_ms", ms_of_ns o.spawn_ns);
      ("farm.work_ms", ms_of_ns o.work_ns);
      ("farm.tasks", f o.tasks);
      ("farm.schedules", f o.schedules);
      ("farm.fishes", f o.fishes);
      ("farm.no_works", f o.no_works);
      ("farm.stolen", f o.stolen);
      ("farm.pe_exec_ms", ms_of_ns (pes (fun s -> s.Msg.exec_ns)));
      ("farm.pe_capacity_ms", ms_of_ns (o.procs * o.work_ns));
      ("farm.coord_pack_ms", ms_of_ns o.coord_pack_ns);
      ("farm.coord_unpack_ms", ms_of_ns o.coord_unpack_ns);
      ("wire.msgs", f (pes (fun s -> s.Msg.msgs_sent + s.msgs_recv)));
      ("wire.bytes", f (pes (fun s -> s.Msg.bytes_sent + s.bytes_recv)));
      ("wire.packets", f (pes (fun s -> s.Msg.packets_sent + s.packets_recv)));
      ( "wire.payload_bytes",
        f (pes (fun s -> s.Msg.payload_bytes_sent + s.payload_bytes_recv)) );
      ("wire.pe_pack_ms", ms_of_ns (pes (fun s -> s.Msg.pack_ns)));
      ("wire.pe_unpack_ms", ms_of_ns (pes (fun s -> s.Msg.unpack_ns)));
      ( "shm_ring.zero_copy_bytes",
        f (pes (fun s -> s.Msg.zero_copy_bytes_sent + s.zero_copy_bytes_recv)) );
      ("shm_ring.backpressure_waits", pe_metric "repro_ring_backpressure_waits_total");
      ("shm_ring.doorbells", pe_metric "repro_ring_doorbell_rings_total");
      ("gc.pe_minor_collections", f (pes (fun s -> s.Msg.gc_minor_collections)));
      ( "gc.pe_minor_mwords",
        Array.fold_left
          (fun a (r : Farm.pe_report) -> a +. r.stats.Msg.gc_minor_words)
          0. o.reports
        /. 1e6 );
    ]

(* The per-layer metrics printed on the result line, in order.  A layer
   the workload never enters did no work on it and reads 0. *)
let per_layer_names =
  [
    "euler.seq_ms"; "strategies.tax_ms"; "pool.tax_ms"; "pool.scaling_loss_ms";
    "pool.sparks_created"; "pool.sparks_fizzled"; "pool.steal_attempts";
    "pool.steals"; "pool.parks"; "pool.wakeups"; "future.forces";
    "fiber.tax_ms"; "fiber.scaling_loss_ms"; "fiber.spawned"; "fiber.suspends";
    "fiber.resumes"; "fiber.high_water"; "fiber.lifetime_p50_us";
    "farm.tax_ms"; "farm.scaling_loss_ms"; "farm.spawn_ms"; "farm.work_ms";
    "farm.tasks"; "farm.schedules"; "farm.fishes"; "farm.no_works";
    "farm.stolen"; "farm.pe_exec_ms"; "farm.coord_pack_ms";
    "farm.coord_unpack_ms"; "wire.msgs"; "wire.bytes"; "wire.packets";
    "wire.payload_bytes"; "wire.pe_pack_ms"; "wire.pe_unpack_ms";
    "shm_ring.backpressure_waits"; "shm_ring.doorbells";
    "shm_ring.zero_copy_bytes"; "gc.minor_collections";
    "gc.major_collections"; "gc.minor_mwords"; "gc.promoted_mwords";
    "gc.pe_minor_collections"; "gc.pe_minor_mwords"; "trace.residual_ms";
    "trace.overhead_frac";
  ]

let per_layer_unit name =
  if String.ends_with ~suffix:"_ms" name then "ms"
  else if String.ends_with ~suffix:"_us" name then "us"
  else if String.ends_with ~suffix:"_frac" name then "frac"
  else if String.ends_with ~suffix:"_mwords" name then "Mwords"
  else if String.ends_with ~suffix:"bytes" name then "bytes"
  else "count"

type traced = {
  ledger : Ledger.t;
  values : (string * float) list;  (** every per-layer metric *)
  ratios : (string * float option) list;  (** absent when the base is 0 *)
  spans : Spans.t;
  t_rounds : int;  (** rounds in which every solve was verified *)
  t_attempted : int;
  t_failed : int;
}

let traced_pass w n ~expected ~rt2 ~run_ms =
  let sp = Spans.create now_ns in
  let attempted = ref 0 and failed = ref 0 in
  (* A traced solve that fails is counted and voids its round. *)
  let timed ~parent ~solve name f =
    incr attempted;
    match Spans.with_span sp ~parent ~solve name f with
    | v, s when v = expected -> Some s
    | _ ->
        incr failed;
        None
    | exception _ ->
        incr failed;
        None
  in
  let dur s = ms_of_ns (Spans.duration_ns s) in
  let rt1, _ =
    Spans.with_span sp ~solve:0 (w.layer ^ ".open_1") (fun _ -> w.open_runtime ~workers:1)
  in
  let tally : tally = Hashtbl.create 32 in
  let lifetimes = ref (Hdr.empty ()) in
  let rounds = ref [] in
  for r = 1 to traced_rounds do
    let round, _ =
      Spans.with_span sp ~solve:r "round" (fun rid ->
          let seq = timed ~parent:rid ~solve:r "euler.seq_loop" (fun _ -> seq_sum 1 n) in
          let unpooled =
            match w.unpooled with
            | None -> []
            | Some run -> [ timed ~parent:rid ~solve:r "strategies.unpooled" (fun _ -> run n) ]
          in
          let run1 = timed ~parent:rid ~solve:r (w.layer ^ ".run_1") (fun _ -> rt1.solve n) in
          let before = M.snapshot () in
          let run2 =
            timed ~parent:rid ~solve:r (w.layer ^ ".run_2") (fun id ->
                let s0 = now_ns () in
                let v = rt2.solve n in
                (match !last_outcome with
                | Some o when w.layer = "farm" ->
                    let spawn_end = s0 + o.Farm.spawn_ns in
                    ignore (Spans.record sp ~parent:id ~solve:r "farm.spawn" s0 spawn_end);
                    ignore
                      (Spans.record sp ~parent:id ~solve:r "farm.work" spawn_end
                         (spawn_end + o.work_ns))
                | _ -> ());
                v)
          in
          let after = M.snapshot () in
          match (seq :: unpooled) @ [ run1; run2 ] with
          | rungs when List.for_all Option.is_some rungs ->
              let rungs = List.map (fun s -> dur (Option.get s)) rungs |> Array.of_list in
              let k = Array.length rungs - 1 in
              snapshot_counts tally before after;
              lifetimes := Hdr.merge !lifetimes (hist_delta before after "repro_fiber_lifetime_ns");
              (match w.layer with
              | "fiber" -> Option.iter (fiber_counts tally) !last_fiber_stats
              | "farm" -> Option.iter (farm_counts tally) !last_outcome
              | _ -> ());
              Some { Ledger.rungs = Array.sub rungs 0 k; run2 = rungs.(k) }
          | _ -> None)
    in
    Option.iter (fun x -> rounds := x :: !rounds) round
  done;
  ignore (Spans.with_span sp ~solve:0 (w.layer ^ ".close_1") (fun _ -> rt1.close ()));
  if !rounds = [] then failwith "traced pass: every round failed";
  let nr = float_of_int (List.length !rounds) in
  let tax_names =
    (if w.unpooled = None then [] else [ "strategies.tax_ms" ]) @ [ w.layer ^ ".tax_ms" ]
  in
  let ledger = Ledger.of_rounds ~tax_names (List.rev !rounds) in
  let per k = get tally k /. nr in
  let computed =
    [
      ("euler.seq_ms", ledger.seq_ms);
      (w.layer ^ ".scaling_loss_ms", ledger.scaling_loss_ms);
      ("trace.residual_ms", ledger.residual_ms);
      ("trace.overhead_frac", (ledger.run2_ms /. run_ms) -. 1.);
      ("fiber.lifetime_p50_us", Hdr.quantile !lifetimes 0.5 /. 1e3);
    ]
    @ ledger.taxes
  in
  let values =
    List.map
      (fun k ->
        (k, match List.assoc_opt k computed with Some v -> v | None -> per k))
      per_layer_names
  in
  let v k = List.assoc k values in
  let ratios =
    [
      ("pool.fizzle_ratio", Stats.ratio (v "pool.sparks_fizzled") (v "pool.sparks_created"));
      ("pool.steal_hit_ratio", Stats.ratio (v "pool.steals") (v "pool.steal_attempts"));
      ("fiber.park_ratio", Stats.ratio (v "fiber.suspends") (v "fiber.spawned"));
      ("fiber.ns_per_spawn", Stats.ratio (v "fiber.tax_ms" *. 1e6) (v "fiber.spawned"));
      ( "farm.fish_hit_ratio",
        Stats.ratio (v "farm.fishes" -. v "farm.no_works") (v "farm.fishes") );
      ( "farm.pe_idle_frac",
        Stats.ratio (v "farm.pe_exec_ms") (per "farm.pe_capacity_ms")
        |> Option.map (fun busy -> 1. -. busy) );
      ("wire.bytes_per_task", Stats.ratio (v "wire.bytes") (v "farm.tasks"));
    ]
  in
  {
    ledger;
    values;
    ratios;
    spans = sp;
    t_rounds = List.length !rounds;
    t_attempted = !attempted;
    t_failed = !failed;
  }

let print_ledger w n (t : traced) =
  Printf.printf
    "ledger %s n=%d rounds=%d/%d (core ms per solve; taxes are medians of paired differences)\n"
    w.name n t.t_rounds traced_rounds;
  List.iter (fun (k, v) -> Printf.printf "  %-28s %12.3f\n" k v) (Ledger.terms t.ledger);
  Printf.printf "  %-28s %12.3f\n" "= 2 x traced run_2" (2. *. t.ledger.run2_ms);
  List.iter (fun (k, v) -> Printf.printf "  %-28s %12.4f\n" k v) t.values;
  List.iter
    (fun (k, r) ->
      match r with
      | Some x -> Printf.printf "  %-28s %12.4f\n" k x
      | None -> Printf.printf "  %-28s %12s\n" k "absent")
    t.ratios

(* ---------------- main ---------------- *)

let () =
  Repro_dist.Worker.maybe_run Sys.argv;
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let out_dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  workload to run");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out_dir, "DIR  write the run's record (samples, spans) here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  let load_start = loadavg () in
  let n = size_of_seed !seed in
  let expected, refs_agree = cross_check n in
  Printf.printf "workload %s seed %d n %d checksum %d\n%!" w.name !seed n expected;
  (* set up several times; keep the last runtime *)
  let setup_samples = ref [] in
  let rt = ref None in
  for _ = 1 to setups do
    Option.iter (fun r -> r.close ()) !rt;
    let r, s = set_up w n ~expected in
    rt := Some r;
    setup_samples := s :: !setup_samples
  done;
  let rt = ref (Option.get !rt) in
  let loop =
    Closed_loop.run ~cpu:cpu_ms ~now:now_ns ~seconds:!seconds ~min_ok:min_solves
      ~max_seconds:(Float.max !seconds max_loop_s) ~seq_every:baseline_every ~expected
      ~solve:(fun () -> !rt.solve n)
      ~seq:(fun () -> seq_sum 1 n)
      ~recover:(fun () ->
        (try !rt.close () with _ -> ());
        rt := w.open_runtime ~workers:2)
      ()
  in
  Printf.printf "timed: %d attempted, %d failed, %d baseline samples, %.1f s\n"
    loop.attempted loop.failed (Array.length loop.seq_ms) loop.elapsed_s;
  List.iter (Printf.printf "  failure: %s\n") loop.errors;
  let run_ms = Stats.median loop.solve_ms and seq_ms = Stats.median loop.seq_ms in
  let core_ms = Stats.median loop.solve_cpu_ms in
  (* Wall time follows the share of the two cores the host gives this
     run, and absolute core time follows the host's speed, so both are
     printed, not gated; their ratio to the baseline is. *)
  let opt = function Some v -> Printf.sprintf "%.3f" v | None -> "absent" in
  Printf.printf "times: run_ms %.3f run_ms_p90 %s seq_ms %.3f speedup_vs_seq %s core_ms %.3f\n"
    run_ms
    (opt (Stats.tail_percentile loop.solve_ms 90.))
    seq_ms
    (opt (Stats.ratio seq_ms run_ms))
    core_ms;
  let end_to_end =
    [
      ("core_vs_seq", "x", Stats.ratio core_ms seq_ms);
      ("setup_s", "s", Some (Stats.median (Array.of_list !setup_samples)));
      ("ok_frac", "frac", Closed_loop.ok_frac loop);
      ("peak_rss_mb", "MiB", Some (peak_rss_mb ()));
    ]
  in
  let traced =
    if !trace = 1 then begin
      let t = traced_pass w n ~expected ~rt2:!rt ~run_ms in
      print_ledger w n t;
      Some t
    end
    else None
  in
  !rt.close ();
  let load_end = loadavg () in
  let env =
    Harness.env_header ~backend:w.name ?transport:w.transport ()
    @ [
        ("loadavg_start", J.Str load_start);
        ("loadavg_end", J.Str load_end);
        ("n", J.Int n);
        ("seed", J.Int !seed);
        ("checksum", J.Int expected);
        ("solves_verified", J.Int (Array.length loop.solve_ms));
        ("baseline_samples", J.Int (Array.length loop.seq_ms));
      ]
  in
  print_endline ("env " ^ J.to_string ~indent:0 (J.Obj env));
  let attempted, failed =
    match traced with
    | Some t -> (loop.attempted + t.t_attempted, loop.failed + t.t_failed)
    | None -> (loop.attempted, loop.failed)
  in
  let metric name unit v = (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]) in
  let metrics =
    match traced with
    | None -> List.filter_map (fun (k, unit, v) -> Option.map (metric k unit) v) end_to_end
    | Some t -> List.map (fun (k, v) -> metric k (per_layer_unit k) v) t.values
  in
  if !out_dir <> "" then begin
    let floats a = J.List (Array.to_list (Array.map (fun x -> J.Float x) a)) in
    let path =
      Filename.concat !out_dir
        (Printf.sprintf "%s-seed%d-trace%d.json" w.name !seed !trace)
    in
    J.to_file path
      (J.Obj
         ([
            ("env", J.Obj env);
            ("solve_ms", floats loop.solve_ms);
            ("solve_cpu_ms", floats loop.solve_cpu_ms);
            ("baseline_ms", floats loop.seq_ms);
            ("setup_s", floats (Array.of_list (List.rev !setup_samples)));
          ]
         @
         match traced with
         | None -> []
         | Some t ->
             [
               ( "ledger",
                 J.Obj (List.map (fun (k, v) -> (k, J.Float v)) (Ledger.terms t.ledger)) );
               ( "ratios",
                 J.Obj
                   (List.map
                      (fun (k, r) -> (k, match r with Some x -> J.Float x | None -> J.Null))
                      t.ratios) );
               ("spans", Spans.to_json t.spans);
             ]))
  end;
  let correct = refs_agree && failed = 0 in
  print_endline
    (J.to_string ~indent:0
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", J.Obj metrics);
          ]))
