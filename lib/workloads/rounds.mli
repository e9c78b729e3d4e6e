(** The five real-execution workloads, each defined once as a plan of
    barrier rounds over pure-data tasks.

    Both real backends interpret the same plan: the spark pool
    ([Repro_exec.Workload]) runs a round's tasks as sparks over a
    shared heap; the process farm ([Repro_dist.Farm] and
    [Repro_dist.Worker]) marshals them to PEs with private heaps, as
    Eden's heap-boundary rule demands (a task is data, never a closure;
    a result is a fully-evaluated value).  Results are combined in task
    order, so every checksum is bit-identical to {!S.reference} on
    either backend.

    A definition keeps no module-level state: whatever [execute] needs
    beyond its task is handed to it by the interpreter — the closed
    {!S.inputs}, and the {!S.resident} state of the slot the task is
    pinned to.

    The simulator's decompositions of the same benchmarks ([Sumeuler],
    [Parfib], ... over [Repro_core.Skeletons]) follow the paper and are
    separate. *)

module type S = sig
  val name : string

  (** What [size] means for this workload. *)
  val size_doc : string

  val default_size : int

  (** Small size for tests and CI smoke runs. *)
  val quick_size : int

  type inputs
  (** Closed inputs every task reads (matmul's factors, apsp's graph).
      Built once per run by the pool and once per PE session by the
      farm; never shipped. *)

  val inputs : size:int -> inputs

  type resident
  (** What one slot keeps from round to round (apsp's row block);
      [unit] for workloads whose rounds are never pinned.  The farm
      keeps one per PE session, the pool one per slot for the run; a
      task in an unpinned round must not depend on it. *)

  val resident : unit -> resident

  type task
  (** Pure data shipped to a PE ([Marshal] without closures). *)

  type result
  (** Fully-evaluated value shipped back. *)

  type state
  (** Coordinator state threaded between rounds. *)

  (** First round: [(state, tasks, pinned)].  When [pinned], task [i]
      must run in slot [i mod procs] (PE [i mod procs] on the farm),
      one task of a slot at a time, in task order. *)
  val start : size:int -> procs:int -> state * task array * bool

  (** Barrier: all of a round's results, in task order.  Either the
      final checksum or the next round. *)
  val step :
    state ->
    result array ->
    [ `Done of int | `Round of state * task array * bool ]

  val execute : inputs -> resident -> task -> result

  (** Bulk-result codec for the farm's zero-[Marshal] data plane:
      [Some (enc, dec)] when results are float-dominated (matmul row
      blocks, mandelbrot row totals).  [dec (enc r)] must reproduce [r]
      bit-for-bit — integers encoded as floats must stay below
      2{^53}.  [None] keeps the result on the marshalled control
      plane. *)
  val result_blob : ((result -> float array) * (float array -> result)) option

  (** Sequential reference checksum. *)
  val reference : size:int -> int
end

(** 512 contiguous blocks of [1..size]. *)
module Sumeuler : S

(** The call tree unfolded down to the [size - 10] threshold; the
    leaves run naive nfib. *)
module Parfib : S

(** [4 * procs] row blocks of the product. *)
module Matmul : S

(** At most 128 row blocks. *)
module Mandelbrot_w : S

(** One pinned round per pivot over [procs] resident row blocks. *)
module Apsp_w : S

(** Every workload, in presentation order. *)
val all : (module S) list

val names : string list
val find : string -> (module S) option

(** Bit pattern of a float as an [int] (distinguishes checksums that
    printing would round together). *)
val float_bits : float -> int
