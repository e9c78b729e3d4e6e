(** Chase–Lev lock-free work-stealing deque (SPAA 2005) — the data
    structure the paper adopts for GpH spark pools (Sec. IV-A.2,
    citation [31]).

    The owner pushes and pops at the bottom (LIFO); thieves steal from
    the top (FIFO) with a single CAS.  Implemented over a growable
    circular array of atomic cells, functorised over the
    {!Repro_shim.Tatomic.S} shim.  The toplevel instance is
    [Make (Tatomic.Real)] — plain [Stdlib.Atomic], safe for genuine
    multi-domain use (and stress-tested from multiple domains).
    [Repro_check] instantiates {!Make} with a tracing shim to
    model-check the protocol exhaustively. *)

module type S = sig
  type 'a t

  val create : unit -> 'a t

  (** Owner-side size estimate; exact when quiescent. *)
  val size : 'a t -> int

  val is_empty : 'a t -> bool

  (** Owner only. *)
  val push : 'a t -> 'a -> unit

  (** Owner only: LIFO pop from the bottom. *)
  val pop : 'a t -> 'a option

  (** Owner only: [pop_if q v] pops the bottom element iff it is
      physically equal to [v], and reports whether it did.  A mismatch
      (or an empty deque) writes nothing, so thieves never observe a
      transient empty deque; a match races thieves for the last element
      exactly as {!pop} does, so [v] is consumed by exactly one side.
      The fiber layer's join uses it to run a still-queued child
      inline. *)
  val pop_if : 'a t -> 'a -> bool

  (** Any thread: FIFO steal from the top.  [None] when empty or when a
      concurrent operation won the race. *)
  val steal : 'a t -> 'a option

  (** Owner only: remove everything (pop order). *)
  val drain : 'a t -> 'a list
end

module Make (A : Repro_shim.Tatomic.S) : S

include S
