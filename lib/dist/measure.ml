(** Wall-clock measurement of distributed runs: per-process-count
    timings, speedup sweeps, message/byte/GC counters, ASCII tables
    and the [BENCH_dist.json] rows — the Eden-side counterpart of
    [Repro_exec.Harness].

    Timings use the outcome's [work_ns] (first dispatch to final
    combine), so process spawning is reported separately and the
    speedup curves compare scheduling + communication + compute, not
    [create_process] overhead. *)

module Stats = Repro_util.Stats
module Tablefmt = Repro_util.Tablefmt
module Json = Repro_util.Json_out

type measurement = {
  workload : string;
  transport : string;
  size : int;
  procs : int;
  repeats : int;
  mean_ns : float;
  stddev_ns : float;
  min_ns : float;
  speedup : float;  (** vs the first entry of the same sweep; 1.0 alone *)
  result : int;
  spawn_mean_ns : float;
  rounds : int;
  tasks : int;
  schedules : int;
  fishes : int;
  no_works : int;
  stolen : int;  (** tasks that moved worker-to-worker (shm) *)
  msgs : int;  (** worker-side messages, sent + received, all PEs *)
  bytes : int;  (** on-wire bytes incl. packet headers, both directions *)
  packets : int;
  payload_bytes : int;  (** application payload, headers excluded *)
  zero_copy_bytes : int;  (** float frames read/written in place (shm) *)
  pack_ns : int;  (** marshalling time summed over PEs *)
  unpack_ns : int;
  minor_collections : int;  (** private-heap GC deltas summed over PEs *)
  major_collections : int;
  minor_words : float;
  promoted_words : float;
  per_pe : Message.worker_stats array;  (** from the last timed repeat *)
}

let measure ?(repeats = 3) ?worker_argv ?transport ~procs ~size
    (module W : Workload.S) : measurement =
  if repeats < 1 then invalid_arg "Measure.measure: repeats must be >= 1";
  let runs =
    (* one warm-up + [repeats] timed runs; every run spawns fresh
       worker processes, so the warm-up only warms the coordinator's
       code paths and the page cache *)
    Array.init (repeats + 1) (fun _ ->
        Farm.run ?worker_argv ?transport ~procs ~size (module W))
  in
  let timed = Array.sub runs 1 repeats in
  let first = timed.(0) in
  Array.iter
    (fun (o : Farm.outcome) ->
      if o.Farm.result <> first.Farm.result then
        failwith
          (Printf.sprintf "dist %s: nondeterministic result (%d vs %d)" W.name
             o.Farm.result first.Farm.result))
    runs;
  let times = Stats.create () and spawns = Stats.create () in
  Array.iter
    (fun (o : Farm.outcome) ->
      Stats.add times (float_of_int o.Farm.work_ns);
      Stats.add spawns (float_of_int o.Farm.spawn_ns))
    timed;
  let last = timed.(repeats - 1) in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 last.Farm.reports in
  let sumf f = Array.fold_left (fun acc r -> acc +. f r) 0.0 last.Farm.reports in
  {
    workload = W.name;
    transport =
      Farm.transport_name (Option.value transport ~default:Farm.Sock);
    size;
    procs;
    repeats;
    mean_ns = Stats.mean times;
    stddev_ns = Stats.stddev times;
    min_ns = Stats.min_value times;
    speedup = 1.0;
    result = first.Farm.result;
    spawn_mean_ns = Stats.mean spawns;
    rounds = last.Farm.rounds;
    tasks = last.Farm.tasks;
    schedules = last.Farm.schedules;
    fishes = last.Farm.fishes;
    no_works = last.Farm.no_works;
    stolen = last.Farm.stolen;
    msgs = sum (fun r -> r.Farm.stats.Message.msgs_sent + r.Farm.stats.Message.msgs_recv);
    bytes = sum (fun r -> r.Farm.stats.Message.bytes_sent + r.Farm.stats.Message.bytes_recv);
    packets =
      sum (fun r -> r.Farm.stats.Message.packets_sent + r.Farm.stats.Message.packets_recv);
    payload_bytes =
      sum (fun r ->
          r.Farm.stats.Message.payload_bytes_sent
          + r.Farm.stats.Message.payload_bytes_recv);
    zero_copy_bytes =
      sum (fun r ->
          r.Farm.stats.Message.zero_copy_bytes_sent
          + r.Farm.stats.Message.zero_copy_bytes_recv);
    pack_ns = sum (fun r -> r.Farm.stats.Message.pack_ns);
    unpack_ns = sum (fun r -> r.Farm.stats.Message.unpack_ns);
    minor_collections = sum (fun r -> r.Farm.stats.Message.gc_minor_collections);
    major_collections = sum (fun r -> r.Farm.stats.Message.gc_major_collections);
    minor_words = sumf (fun r -> r.Farm.stats.Message.gc_minor_words);
    promoted_words = sumf (fun r -> r.Farm.stats.Message.gc_promoted_words);
    per_pe = Array.map (fun r -> r.Farm.stats) last.Farm.reports;
  }

let sweep ?repeats ?worker_argv ?transport ~procs_list ~size
    (module W : Workload.S) : measurement list =
  match procs_list with
  | [] -> []
  | _ ->
      let ms =
        List.map
          (fun procs ->
            measure ?repeats ?worker_argv ?transport ~procs ~size (module W))
          procs_list
      in
      let base = (List.hd ms).mean_ns in
      List.map (fun m -> { m with speedup = base /. m.mean_ns }) ms

let ms ns = ns /. 1e6

let to_table (ms_list : measurement list) : Tablefmt.t
    =
  let t =
    Tablefmt.create
      ~aligns:
        [
          Tablefmt.Left;
          Tablefmt.Left;
          Tablefmt.Right;
          Tablefmt.Right;
          Tablefmt.Right;
          Tablefmt.Right;
          Tablefmt.Right;
          Tablefmt.Right;
          Tablefmt.Right;
          Tablefmt.Right;
          Tablefmt.Right;
          Tablefmt.Right;
        ]
      [
        "workload";
        "wire";
        "size";
        "procs";
        "mean ms";
        "stddev";
        "speedup";
        "msgs";
        "kbytes";
        "0copy kb";
        "fishes";
        "gc minor";
      ]
  in
  List.iter
    (fun m ->
      Tablefmt.add_row t
        [
          m.workload;
          m.transport;
          string_of_int m.size;
          string_of_int m.procs;
          Printf.sprintf "%.2f" (ms m.mean_ns);
          Printf.sprintf "%.2f" (ms m.stddev_ns);
          Printf.sprintf "%.2f" m.speedup;
          string_of_int m.msgs;
          Printf.sprintf "%.1f" (float_of_int m.bytes /. 1024.0);
          Printf.sprintf "%.1f" (float_of_int m.zero_copy_bytes /. 1024.0);
          string_of_int m.fishes;
          string_of_int m.minor_collections;
        ])
    ms_list;
  t

let json_of_per_pe (p : Message.worker_stats) : Json.t =
  Json.Obj
    [
      ("pe", Json.Int p.stats_pe);
      ("tasks", Json.Int p.tasks_executed);
      ("fishes", Json.Int p.fishes_sent);
      ("stolen", Json.Int p.tasks_stolen);
      ("grants", Json.Int p.grants_given);
      ("msgs_sent", Json.Int p.msgs_sent);
      ("msgs_recv", Json.Int p.msgs_recv);
      ("bytes_sent", Json.Int p.bytes_sent);
      ("bytes_recv", Json.Int p.bytes_recv);
      ("packets_sent", Json.Int p.packets_sent);
      ("packets_recv", Json.Int p.packets_recv);
      ("payload_bytes_sent", Json.Int p.payload_bytes_sent);
      ("payload_bytes_recv", Json.Int p.payload_bytes_recv);
      ("zero_copy_bytes_sent", Json.Int p.zero_copy_bytes_sent);
      ("zero_copy_bytes_recv", Json.Int p.zero_copy_bytes_recv);
      ("pack_ns", Json.Int p.pack_ns);
      ("unpack_ns", Json.Int p.unpack_ns);
      ("exec_ns", Json.Int p.exec_ns);
      ("gc_minor_collections", Json.Int p.gc_minor_collections);
      ("gc_major_collections", Json.Int p.gc_major_collections);
      ("gc_minor_words", Json.Float p.gc_minor_words);
      ("gc_promoted_words", Json.Float p.gc_promoted_words);
    ]

let json_of_measurement (m : measurement) : Json.t =
  Json.Obj
    [
      ("workload", Json.Str m.workload);
      ("transport", Json.Str m.transport);
      ("size", Json.Int m.size);
      ("procs", Json.Int m.procs);
      ("repeats", Json.Int m.repeats);
      ("mean_ns", Json.Float m.mean_ns);
      ("stddev_ns", Json.Float m.stddev_ns);
      ("min_ns", Json.Float m.min_ns);
      ("speedup", Json.Float m.speedup);
      ("result", Json.Int m.result);
      ("spawn_mean_ns", Json.Float m.spawn_mean_ns);
      ("rounds", Json.Int m.rounds);
      ("tasks", Json.Int m.tasks);
      ("schedules", Json.Int m.schedules);
      ("fishes", Json.Int m.fishes);
      ("no_works", Json.Int m.no_works);
      ("stolen", Json.Int m.stolen);
      ("msgs", Json.Int m.msgs);
      ("bytes", Json.Int m.bytes);
      ("packets", Json.Int m.packets);
      ("payload_bytes", Json.Int m.payload_bytes);
      ("zero_copy_bytes", Json.Int m.zero_copy_bytes);
      ("pack_ns", Json.Int m.pack_ns);
      ("unpack_ns", Json.Int m.unpack_ns);
      ("minor_collections", Json.Int m.minor_collections);
      ("major_collections", Json.Int m.major_collections);
      ("minor_words", Json.Float m.minor_words);
      ("promoted_words", Json.Float m.promoted_words);
      ("per_pe", Json.List (Array.to_list (Array.map json_of_per_pe m.per_pe)));
    ]

(** [header] should come from [Harness.env_header
    ~backend:"processes" ~transport:"socketpair" ()] (not referenced
    here to keep [repro.dist] independent of [repro.exec]). *)
let json_document ~header (ms_list : measurement list) : Json.t =
  Json.Obj
    [
      ("schema", Json.Str "repro/bench-dist/v1");
      ("env", Json.Obj header);
      ( "measurements",
        Json.List (List.map json_of_measurement ms_list) );
    ]
