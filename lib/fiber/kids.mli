(** A fiber's children registry for cancellation propagation: a
    single-writer list of clearable slots, pruned lazily by its owner.
    No lock — only the owning fiber registers, any domain may clear a
    slot or take a snapshot.  [lib/check] model-checks the
    spawn-versus-cancel ordering over this code
    ([fiber-spawn-vs-cancel]). *)

module type S = sig
  type 'a t
  type 'a slot

  val create : unit -> 'a t

  val slot : unit -> 'a slot
  (** A fresh empty slot, to be handed to {!register}. *)

  val register : 'a t -> 'a slot -> 'a -> unit
  (** Owner only: fill the slot with the value and link it into the
      registry (pruning cleared slots when the list has doubled). *)

  val clear : 'a slot -> unit
  (** Any domain: empty the slot, so the registry no longer retains its
      value.  Idempotent. *)

  val snapshot : 'a t -> 'a list
  (** Any domain: the values in every slot not yet cleared. *)

  val length : 'a t -> int
  (** Owner only: slots currently linked, cleared or not — never more
      than 8 or twice the slots that survived the last prune. *)
end

module Make (A : Repro_shim.Tatomic.S) : S

include S
