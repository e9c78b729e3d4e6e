(** A fiber's children registry for cancellation propagation: a
    single-writer list of clearable slots.

    Only the owning fiber's own segments ever spawn, and they run one
    at a time, so {!register} needs no lock: it fills a fresh slot and
    publishes the extended list with one atomic store.  Any domain may
    {!snapshot} the list (a canceller) or {!clear} a slot (a finishing
    child, so a finished subtree is not retained).  The owner prunes
    empty slots lazily: once the list reaches [limit] entries it is
    rebuilt from the live slots and [limit] becomes twice the survivors
    (at least [min_limit]), so pruning costs amortised O(1) per
    registration and the list stays within twice the live children.

    Cancellation ordering: a spawn {!register}s {e then} reads the
    parent's cancelled flag; a canceller sets the flag {e then} takes a
    {!snapshot}.  Under sequentially-consistent atomics one of them
    sees the other, so the child is always cancelled — [lib/check]
    model-checks exactly this code ([fiber-spawn-vs-cancel]) and shows
    the check-then-register order losing the cancellation.

    A functor over the {!Repro_shim.Tatomic.S} shim, like {!Promise};
    the toplevel instance is the zero-cost [Real] alias. *)

module type S = sig
  type 'a t
  type 'a slot

  val create : unit -> 'a t
  val slot : unit -> 'a slot
  val register : 'a t -> 'a slot -> 'a -> unit
  val clear : 'a slot -> unit
  val snapshot : 'a t -> 'a list
  val length : 'a t -> int
end

module Make (A : Repro_shim.Tatomic.S) = struct
  type 'a slot = 'a option A.t

  type 'a t = {
    head : 'a slot list A.t;
    mutable len : int;  (* owner only: slots in [head] *)
    mutable limit : int;  (* owner only: prune when [len] reaches it *)
  }

  let min_limit = 8
  let create () = { head = A.make []; len = 0; limit = min_limit }
  let slot () = A.make None
  let clear s = A.set s None
  let live s = Option.is_some (A.get s)

  let register t s v =
    A.set s (Some v);
    let l =
      if t.len < t.limit then A.get t.head
      else begin
        let l = List.filter live (A.get t.head) in
        t.len <- List.length l;
        t.limit <- max min_limit (2 * t.len);
        l
      end
    in
    A.set t.head (s :: l);
    t.len <- t.len + 1

  let snapshot t = List.filter_map A.get (A.get t.head)
  let length t = t.len
end

include Make (Repro_shim.Tatomic.Real)
