(** Wall-clock measurement of distributed runs — the Eden-side
    counterpart of [Repro_exec.Harness]: per-process-count timings and
    speedups plus the message/byte/packet and private-heap GC counters
    no shared-memory run has. *)

type measurement = {
  workload : string;
  transport : string;  (** ["socketpair"] or ["shm"] *)
  size : int;
  procs : int;
  repeats : int;
  mean_ns : float;  (** [work_ns]: dispatch to final combine *)
  stddev_ns : float;
  min_ns : float;
  speedup : float;  (** vs the first entry of the same sweep; 1.0 alone *)
  result : int;
  spawn_mean_ns : float;  (** process creation + handshakes, reported apart *)
  rounds : int;
  tasks : int;
  schedules : int;
  fishes : int;
  no_works : int;
  stolen : int;  (** tasks that moved worker-to-worker (shm) *)
  msgs : int;  (** worker-side messages, sent + received, all PEs *)
  bytes : int;
  packets : int;
  payload_bytes : int;  (** application payload, headers excluded *)
  zero_copy_bytes : int;  (** float frames read/written in place (shm) *)
  pack_ns : int;
  unpack_ns : int;
  minor_collections : int;  (** summed over the PEs' private heaps *)
  major_collections : int;
  minor_words : float;
  promoted_words : float;
  per_pe : Message.worker_stats array;  (** from the last timed repeat *)
}

(** One warm-up plus [repeats] (default 3) timed runs, each on fresh
    worker processes.
    @raise Failure if two repeats disagree on the result checksum. *)
val measure :
  ?repeats:int ->
  ?worker_argv:string array ->
  ?transport:Farm.transport ->
  procs:int ->
  size:int ->
  (module Workload.S) ->
  measurement

(** Measure at each process count; speedups relative to the first
    entry. *)
val sweep :
  ?repeats:int ->
  ?worker_argv:string array ->
  ?transport:Farm.transport ->
  procs_list:int list ->
  size:int ->
  (module Workload.S) ->
  measurement list

val to_table : measurement list -> Repro_util.Tablefmt.t
val json_of_measurement : measurement -> Repro_util.Json_out.t

(** [BENCH_dist.json]-style document; pass
    [Repro_exec.Harness.env_header ~backend:"processes"
    ~transport:(Farm.transport_name t) ()] as [header]. *)
val json_document :
  header:(string * Repro_util.Json_out.t) list ->
  measurement list ->
  Repro_util.Json_out.t
