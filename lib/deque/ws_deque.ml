(** Chase–Lev lock-free work-stealing deque (SPAA 2005).

    This is the data structure the paper adopts for GpH spark pools
    (Sec. IV-A.2, citation [31]): the owner capability pushes and pops
    sparks at the bottom without synchronisation in the common case,
    while idle capabilities steal from the top with a single CAS.

    The implementation follows the dynamic circular-array formulation:

    - [push] (owner only): write at [bottom], increment [bottom];
    - [pop] (owner only): decrement [bottom]; if the deque might now be
      empty, race a CAS on [top] against concurrent stealers;
    - [pop_if] (owner only): [pop], but only when the bottom slot holds
      a given element — a mismatch writes nothing;
    - [steal] (any thread): read [top], read the element, CAS [top]
      forward; a failed CAS means another stealer (or the owner's pop)
      won the race.

    The circular array grows geometrically when full; old arrays are
    left for the GC (safe in OCaml — no manual reclamation problem).

    The structure is a functor over the {!Repro_shim.Tatomic.S} atomics
    shim: the default instance below uses the zero-cost [Real] alias of
    [Stdlib.Atomic] and is safe for genuine multi-domain use (the test
    suite stresses it from multiple domains); [Repro_check] instantiates
    it with a tracing shim and exhaustively model-checks the push/pop/
    steal protocol with a DPOR scheduler. *)

module type S = sig
  type 'a t

  val create : unit -> 'a t
  val size : 'a t -> int
  val is_empty : 'a t -> bool
  val push : 'a t -> 'a -> unit
  val pop : 'a t -> 'a option
  val pop_if : 'a t -> 'a -> bool
  val steal : 'a t -> 'a option
  val drain : 'a t -> 'a list
end

module Make (A : Repro_shim.Tatomic.S) = struct
  type 'a circular_array = {
    log_size : int;
    segment : 'a option A.t array;
  }

  let ca_create log_size =
    { log_size; segment = Array.init (1 lsl log_size) (fun _ -> A.make None) }

  let ca_size a = 1 lsl a.log_size
  let ca_get a i = A.get a.segment.(i land (ca_size a - 1))
  let ca_put a i v = A.set a.segment.(i land (ca_size a - 1)) v

  let ca_grow a ~bottom ~top =
    let b = ca_create (a.log_size + 1) in
    for i = top to bottom - 1 do
      ca_put b i (ca_get a i)
    done;
    b

  type 'a t = {
    top : int A.t;
    bottom : int A.t;
    active : 'a circular_array A.t;
  }

  let create () =
    {
      top = A.make 0;
      bottom = A.make 0;
      active = A.make (ca_create 4);
    }

  (* Owner-side size estimate; exact when no concurrent operations. *)
  let size q =
    let b = A.get q.bottom and t = A.get q.top in
    max 0 (b - t)

  let is_empty q = size q = 0

  (* Owner only. *)
  let push q v =
    let b = A.get q.bottom and t = A.get q.top in
    let a = A.get q.active in
    let a =
      if b - t >= ca_size a - 1 then begin
        let a' = ca_grow a ~bottom:b ~top:t in
        A.set q.active a';
        a'
      end
      else a
    in
    ca_put a b (Some v);
    A.set q.bottom (b + 1)

  (* Owner only: LIFO pop from the bottom. *)
  let pop q =
    let b = A.get q.bottom - 1 in
    let a = A.get q.active in
    A.set q.bottom b;
    let t = A.get q.top in
    let sz = b - t in
    if sz < 0 then begin
      (* Deque was empty: restore bottom. *)
      A.set q.bottom t;
      None
    end
    else
      let v = ca_get a b in
      if sz > 0 then begin
        ca_put a b None;
        v
      end
      else begin
        (* Last element: race against stealers for it. *)
        let won = A.compare_and_set q.top t (t + 1) in
        A.set q.bottom (t + 1);
        if won then begin
          ca_put a b None;
          v
        end
        else None
      end

  (* Owner only: pop the bottom element iff it is physically [v].  Only
     the owner writes slots and [bottom], so a slot that matches still
     holds [v] when [pop] runs; [pop] then races thieves for it, and
     [None] means one of them won. *)
  let pop_if q v =
    let b = A.get q.bottom - 1 in
    b >= A.get q.top
    && (match ca_get (A.get q.active) b with Some x -> x == v | None -> false)
    && Option.is_some (pop q)

  (* Any thread: FIFO steal from the top. *)
  let steal q =
    let t = A.get q.top in
    let b = A.get q.bottom in
    if b - t <= 0 then None
    else
      let a = A.get q.active in
      let v = ca_get a t in
      if A.compare_and_set q.top t (t + 1) then v else None

  (* Owner only: drain everything (used when shutting a capability down). *)
  let drain q =
    let rec go acc = match pop q with None -> List.rev acc | Some v -> go (v :: acc) in
    go []
end

include Make (Repro_shim.Tatomic.Real)
