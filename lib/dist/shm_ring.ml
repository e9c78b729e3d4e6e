(** Shared-memory ring transport: the second {!Wire.TRANSPORT}.

    Where {!Wire} moves packets through the kernel (two copies and a
    syscall per packet, each way), this transport moves frames through
    a pair of mmap'd single-producer/single-consumer ring buffers — one
    per direction — so the hot path is write/publish/consume with {e
    zero syscalls}.  This is the paper's "PVM mapped onto shared
    memory" point in the design space: same message-passing semantics
    as the socketpair transport (the [Message] layer cannot tell them
    apart), an order of magnitude less cost per message.

    {2 Segment layout}

    One segment file (preferably on [/dev/shm]) holds both rings:

    {v
      ring A->B header | ring A->B data | ring B->A header | ring B->A data
    v}

    A ring header is three cache-line-padded control words
    (64-byte-aligned 8-byte slots, so the producer's and consumer's
    cursors never share a line):

    - [tail] at offset 0 — free-running byte counter, {e producer-owned}
    - [head] at offset 64 — free-running byte counter, {e consumer-owned}
    - [sleeping] at offset 128 — consumer's doorbell-arm flag

    Cursors are free-running (never wrapped); [tail - head] is the
    bytes in flight and [cursor mod cap] the physical offset, so full
    vs empty needs no reserved slot and wrap-around arithmetic is
    exact at every capacity mod point.

    {2 Frames}

    Data is framed in 8-byte-aligned units that {e never straddle} the
    ring end (a [skip] frame burns the left-over tail of the ring so
    the next frame starts at offset 0 — float payloads thus always
    land 8-aligned and contiguous, readable through a [float64]
    Bigarray view with no staging copy):

    {v
      frame  := header word | payload (padded to 8 bytes)
      header := bits 0-1 kind (0 skip / 1 bytes / 2 floats)
                bit  2   last frame of the message
                bits 3+  payload length (bytes for kind 1, elements for kind 2)
    v}

    Long messages stream as multiple frames, like {!Wire}'s packets —
    a message larger than the ring flows through it, the consumer
    draining frames while the producer appends them.

    {2 The doorbell}

    A blocked consumer must not spin forever, but the producer must
    not pay a syscall per message either.  The compromise is a
    Dekker-style handshake on the [sleeping] word: the consumer spins
    briefly, then arms [sleeping], re-checks [tail] and only then
    blocks reading the doorbell descriptor (one end of the control
    socketpair); the producer, after publishing [tail], checks
    [sleeping] and writes a one-byte token only if the consumer armed
    it.  Both sides put a full fence ({!Repro_shim.Tatomic.Fence})
    between their store and the following load — the classic StoreLoad
    hazard; without it both can pass their checks and the consumer
    sleeps on a message it never saw.  Peer-to-peer links between
    workers run doorbell-less (short-lived waits, poll + microsleep).

    Control words go through {!Mapped_word}, an instance of the shim's
    {!Repro_shim.Tatomic.WORD} — the same signature [lib/check]'s
    traced cells implement, so the DPOR model checker explores the
    very publish/consume discipline in {!Spsc} below. *)

module A1 = Bigarray.Array1
module Tatomic = Repro_shim.Tatomic

let word = 8
let ring_header_bytes = 192 (* 3 control words, 64 bytes apart *)
let default_ring_bytes = 256 * 1024
let align8 n = (n + 7) land lnot 7

(* ---------------- shim-mediated control words ---------------- *)

(** An 8-byte-aligned slot of the mapped segment as a
    {!Repro_shim.Tatomic.WORD}: aligned word loads and stores are
    single instructions on every 64-bit target, and each word here has
    exactly one writer (SPSC), so load/store is all a correct ring
    needs — ordering comes from {!Tatomic.Fence} at the two StoreLoad
    edges. *)
module Mapped_word = struct
  type t = {
    words : (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t;
    idx : int;
  }

  let load t = Int64.to_int (A1.get t.words t.idx)
  let store t v = A1.set t.words t.idx (Int64.of_int v)
end

module _ : Tatomic.WORD = Mapped_word

(* ---------------- the distilled protocol ---------------- *)

(** The SPSC handshake, distilled to one word per slot and abstracted
    over the control-word implementation.  Instantiated with
    {!Mapped_word}-like storage it is the production discipline below;
    instantiated with [Repro_check.Sched.Atomic]-backed cells it is
    the model the DPOR checker exhausts (see [Repro_check.Protocols]'s
    spsc-ring configs, including the publish-before-write mutant this
    ordering exists to rule out).  QCheck drives the same functor
    against a queue reference across wrap-around at every capacity mod
    point. *)
module Spsc (W : Tatomic.WORD) = struct
  type t = {
    cap : int;
    tail : W.t;  (** producer-owned free-running slot counter *)
    head : W.t;  (** consumer-owned *)
    get : int -> int;  (** slot read, producer never calls it *)
    set : int -> int -> unit;  (** slot write, consumer never calls it *)
  }

  let create ~cap ~tail ~head ~get ~set =
    if cap < 1 then invalid_arg "Spsc.create: cap must be >= 1";
    { cap; tail; head; get; set }

  (* Producer: write the slot, THEN publish the bumped tail.  The
     order is the whole protocol — a consumer that observes the new
     tail must observe the slot contents it covers. *)
  let try_push t v =
    let tail = W.load t.tail in
    let head = W.load t.head in
    if tail - head >= t.cap then false
    else begin
      t.set (tail mod t.cap) v;
      W.store t.tail (tail + 1);
      true
    end

  (* Consumer: observe the tail, read the slot, THEN release it by
     bumping head — the mirror-image discipline. *)
  let try_pop t =
    let head = W.load t.head in
    let tail = W.load t.tail in
    if tail - head = 0 then None
    else begin
      let v = t.get (head mod t.cap) in
      W.store t.head (head + 1);
      Some v
    end

  let length t = W.load t.tail - W.load t.head
end

(* ---------------- production ring ---------------- *)

let kind_skip = 0
let kind_bytes = 1
let kind_floats = 2
let frame_header ~kind ~last ~len = kind lor (if last then 4 else 0) lor (len lsl 3)
let header_kind h = h land 3
let header_last h = h land 4 <> 0
let header_len h = h lsr 3

type ring = {
  cap : int;  (** data bytes; multiple of 8 *)
  tail_w : Mapped_word.t;
  head_w : Mapped_word.t;
  sleeping_w : Mapped_word.t;
  data_chars : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t;
  data_words : (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t;
  data_floats : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t;
  (* Role-specific cursor caches.  The owned cursor's cache is
     authoritative (only we advance it); the peer cursor's cache is a
     lower bound refreshed only when it blocks progress, so the common
     case touches no shared line but our own. *)
  mutable tail_local : int;  (** producer's tail (owned when producing) *)
  mutable head_local : int;  (** consumer's head (owned when consuming) *)
  mutable peer_head : int;  (** producer's stale view of head *)
  mutable peer_tail : int;  (** consumer's stale view of tail *)
}

type conn = {
  out_ring : ring;
  in_ring : ring;
  doorbell : Unix.file_descr option;
      (** full-duplex: we block reading it, we wake the peer writing it *)
  counters : Wire.counters;
  frame_bytes : int;  (** max payload bytes per frame *)
  mutable on_wait : (unit -> unit) option;
      (** called while blocked on a full out-ring — the coordinator
          drains incoming results here, breaking the duplex deadlock
          (it blocked pushing a task, the worker blocked pushing a
          result) *)
  mutable peer_gone : bool;  (** doorbell EOF seen while draining *)
  scratch : Bytes.t;  (** doorbell token buffer *)
  mutable mtoken : Repro_metrics.Metrics.collector option;
      (** per-link metrics collector *)
}

let counters c = c.counters
let set_on_wait c f = c.on_wait <- f
let has_doorbell c = c.doorbell <> None

let wait_fd c =
  match c.doorbell with
  | Some fd -> fd
  | None -> invalid_arg "Shm_ring.wait_fd: doorbell-less (peer-to-peer) link"

(* ---------------- segment files ---------------- *)

let segment_dir =
  lazy
    (let shm = "/dev/shm" in
     if Sys.file_exists shm && Sys.is_directory shm then shm
     else Filename.get_temp_dir_name ())

let segment_size ~ring_bytes = 2 * (ring_header_bytes + ring_bytes)

let create_segment ?(ring_bytes = default_ring_bytes) () =
  let ring_bytes = max 4096 (align8 ring_bytes) in
  let path = Filename.temp_file ~temp_dir:(Lazy.force segment_dir) "repro-ring-" ".shm" in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* ftruncate zero-fills: tail = head = sleeping = 0, both rings
         empty *)
      Unix.ftruncate fd (segment_size ~ring_bytes));
  path

let unlink_segment path = try Sys.remove path with Sys_error _ -> ()

let attach ~path ~side ?doorbell () =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
  (* The mappings outlive the descriptor, so it closes on every path —
     including a raise out of fstat/map_file. *)
  let cap, chars, words, floats =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        let cap = (size / 2) - ring_header_bytes in
        if cap < 4096 || cap land 7 <> 0 then
          failwith
            (Printf.sprintf "Shm_ring.attach: %s has absurd size %d" path size);
        let map kind n =
          Bigarray.array1_of_genarray
            (Unix.map_file fd kind Bigarray.c_layout true [| n |])
        in
        let chars = map Bigarray.char size in
        let words = map Bigarray.int64 (size / 8) in
        let floats = map Bigarray.float64 (size / 8) in
        (cap, chars, words, floats))
  in
  let ring i =
    let hdr_off = i * (ring_header_bytes + cap) in
    let data_off = hdr_off + ring_header_bytes in
    let w byte = { Mapped_word.words; idx = (hdr_off + byte) / 8 } in
    {
      cap;
      tail_w = w 0;
      head_w = w 64;
      sleeping_w = w 128;
      data_chars = A1.sub chars data_off cap;
      data_words = A1.sub words (data_off / 8) (cap / 8);
      data_floats = A1.sub floats (data_off / 8) (cap / 8);
      tail_local = Int64.to_int (A1.get words ((hdr_off + 0) / 8));
      head_local = Int64.to_int (A1.get words ((hdr_off + 64) / 8));
      peer_head = 0;
      peer_tail = 0;
    }
  in
  let r0 = ring 0 and r1 = ring 1 in
  let out_ring, in_ring = match side with `A -> (r0, r1) | `B -> (r1, r0) in
  let counters = Wire.fresh_counters () in
  {
    out_ring;
    in_ring;
    doorbell;
    counters;
    frame_bytes = max 8 (align8 (min (32 * 1024) (cap / 4)));
    on_wait = None;
    peer_gone = false;
    scratch = Bytes.create 64;
    mtoken = Some (Wire.add_link_collector ~transport:"shm" counters);
  }

let peer_gone c = c.peer_gone

let close c =
  (match c.mtoken with
  | Some tok ->
      c.mtoken <- None;
      Repro_metrics.Metrics.remove_collector tok
  | None -> ());
  match c.doorbell with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

(* ---------------- producer side ---------------- *)

let micro_sleep () = ignore (Unix.select [] [] [] 50e-6)

(* Ring observability in the default metrics registry: how often a
   producer found its out-ring full (backpressure) and how often a
   doorbell syscall was actually paid.  Lazy so registration (which
   takes the registry mutex) happens once, off the hot loop. *)
module M = Repro_metrics.Metrics

let backpressure_waits =
  lazy
    (M.counter ~help:"Producer waits on a full shm ring"
       "repro_ring_backpressure_waits_total")

let doorbell_rings =
  lazy
    (M.counter ~help:"Doorbell wake syscalls paid by shm producers"
       "repro_ring_doorbell_rings_total")

let ring_doorbell c =
  match c.doorbell with
  | None -> ()
  | Some fd -> (
      M.incr (Lazy.force doorbell_rings);
      Bytes.set c.scratch 0 '!';
      try ignore (Unix.write fd c.scratch 0 1) with
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
          Wire.raise_dead_peer "peer closed the doorbell during send")

(* Claim [total] contiguous data bytes (spinning via [on_wait] /
   microsleep while the ring is full), write the frame, publish it,
   and wake a sleeping consumer.  [write] fills the payload at the
   byte offset it is given. *)
let write_frame c ~kind ~last ~len ~payload_bytes ~write =
  let r = c.out_ring in
  let total = word + align8 payload_bytes in
  assert (total <= r.cap);
  let tail = r.tail_local in
  let pos = tail mod r.cap in
  let to_end = r.cap - pos in
  (* a frame never straddles the end: wrapping costs a skip frame *)
  let need = if total <= to_end then total else to_end + total in
  while tail + need - r.peer_head > r.cap do
    r.peer_head <- Mapped_word.load r.head_w;
    if tail + need - r.peer_head > r.cap then begin
      M.incr (Lazy.force backpressure_waits);
      match c.on_wait with Some f -> f () | None -> micro_sleep ()
    end
  done;
  let off =
    if total <= to_end then pos
    else begin
      A1.set r.data_words (pos / 8)
        (Int64.of_int (frame_header ~kind:kind_skip ~last:false ~len:0));
      0
    end
  in
  A1.set r.data_words (off / 8) (Int64.of_int (frame_header ~kind ~last ~len));
  write (off + word);
  (* publish: payload and header must be visible before the new tail *)
  Tatomic.Fence.full ();
  r.tail_local <- tail + need;
  Mapped_word.store r.tail_w r.tail_local;
  (* StoreLoad edge of the Dekker handshake: tail-store above vs
     sleeping-load below *)
  Tatomic.Fence.full ();
  if Mapped_word.load r.sleeping_w <> 0 then ring_doorbell c

let frames_of_len ~frame_bytes len =
  if len = 0 then 1 else (len + frame_bytes - 1) / frame_bytes

let send c payload =
  let len = String.length payload in
  let nfr = frames_of_len ~frame_bytes:c.frame_bytes len in
  let r = c.out_ring in
  let src = ref 0 in
  for f = 0 to nfr - 1 do
    let n = min c.frame_bytes (len - !src) in
    let start = !src in
    write_frame c ~kind:kind_bytes ~last:(f = nfr - 1) ~len:n ~payload_bytes:n
      ~write:(fun off ->
        for i = 0 to n - 1 do
          A1.set r.data_chars (off + i) (String.unsafe_get payload (start + i))
        done);
    src := !src + n
  done;
  c.counters.Wire.msgs_sent <- c.counters.Wire.msgs_sent + 1;
  c.counters.Wire.packets_sent <- c.counters.Wire.packets_sent + nfr;
  c.counters.Wire.bytes_sent <- c.counters.Wire.bytes_sent + len + (nfr * word);
  c.counters.Wire.payload_bytes_sent <- c.counters.Wire.payload_bytes_sent + len

let send_floats c (arr : float array) =
  let total = Array.length arr in
  let per_frame = c.frame_bytes / 8 in
  let nfr = if total = 0 then 1 else (total + per_frame - 1) / per_frame in
  let r = c.out_ring in
  let src = ref 0 in
  for f = 0 to nfr - 1 do
    let n = min per_frame (total - !src) in
    let start = !src in
    write_frame c ~kind:kind_floats ~last:(f = nfr - 1) ~len:n
      ~payload_bytes:(n * 8) ~write:(fun off ->
        (* straight from the source array into the shared mapping —
           the one and only copy on this path (vs sock: array ->
           scratch -> kernel -> scratch -> array) *)
        let base = off / 8 in
        for i = 0 to n - 1 do
          A1.set r.data_floats (base + i) (Array.unsafe_get arr (start + i))
        done);
    src := !src + n
  done;
  let bytes = total * 8 in
  c.counters.Wire.msgs_sent <- c.counters.Wire.msgs_sent + 1;
  c.counters.Wire.packets_sent <- c.counters.Wire.packets_sent + nfr;
  c.counters.Wire.bytes_sent <- c.counters.Wire.bytes_sent + bytes + (nfr * word);
  c.counters.Wire.payload_bytes_sent <-
    c.counters.Wire.payload_bytes_sent + bytes;
  c.counters.Wire.zero_copy_bytes_sent <-
    c.counters.Wire.zero_copy_bytes_sent + bytes

(* ---------------- consumer side ---------------- *)

let available c =
  let r = c.in_ring in
  r.peer_tail - r.head_local > 0
  ||
  (r.peer_tail <- Mapped_word.load r.tail_w;
   r.peer_tail - r.head_local > 0)

let input_ready = available

let prepare_sleep c =
  Mapped_word.store c.in_ring.sleeping_w 1;
  (* StoreLoad edge: the caller's re-check of [tail] must not be
     satisfied by a load hoisted above the store — symmetric to the
     producer's fence after publishing *)
  Tatomic.Fence.full ()

let cancel_sleep c = Mapped_word.store c.in_ring.sleeping_w 0

(* Swallow pending wake tokens (non-blocking).  Tokens are hints —
   losing one is impossible while [sleeping] is clear, and a stale one
   only causes a spurious wake, so draining needs no precision. *)
let drain_doorbell c =
  match c.doorbell with
  | None -> ()
  | Some fd ->
      let rec go () =
        match Unix.select [ fd ] [] [] 0.0 with
        | [], _, _ -> ()
        | _ -> (
            match
              try Unix.read fd c.scratch 0 64 with Unix.Unix_error _ -> 0
            with
            | 0 -> c.peer_gone <- true
            | _ -> go ())
      in
      go ()

let spin_limit = 512

(* Block until at least one frame is available.  [mid] distinguishes a
   peer death at a message boundary (End_of_file, like Wire's recv)
   from one inside a message (Truncated). *)
let wait_input c ~mid =
  if not (available c) then begin
    let spins = ref 0 in
    while (not (available c)) && !spins < spin_limit do
      incr spins
    done;
    while not (available c) do
      if c.peer_gone then
        if mid then Wire.raise_truncated "peer closed mid-message (shm ring)"
        else raise End_of_file;
      match c.doorbell with
      | None -> micro_sleep ()
      | Some fd ->
          prepare_sleep c;
          if available c then cancel_sleep c
          else begin
            drain_doorbell c;
            if available c then cancel_sleep c
            else begin
              let n =
                try Unix.read fd c.scratch 0 1 with
                | Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
              in
              cancel_sleep c;
              if n = 0 then c.peer_gone <- true
            end
          end
    done
  end

(* Position of the next real frame's header, skipping wrap markers.
   Returns the header word; the payload starts [word] bytes after
   [head_local mod cap]. *)
let rec next_header c ~mid =
  wait_input c ~mid;
  let r = c.in_ring in
  (* the tail observation above must precede the data reads below
     (LoadLoad — free on x86, not on ARM, and the compiler knows
     neither) *)
  Tatomic.Fence.full ();
  let pos = r.head_local mod r.cap in
  let h = Int64.to_int (A1.get r.data_words (pos / 8)) in
  if header_kind h = kind_skip then begin
    (* a skip frame releases the dead tail of the ring in one bump *)
    Tatomic.Fence.full ();
    r.head_local <- r.head_local + (r.cap - pos);
    Mapped_word.store r.head_w r.head_local;
    next_header c ~mid
  end
  else h

(* Release the consumed frame.  The fence keeps payload reads before
   the head-store that lets the producer overwrite them. *)
let consume c ~payload_bytes =
  let r = c.in_ring in
  Tatomic.Fence.full ();
  r.head_local <- r.head_local + word + align8 payload_bytes;
  Mapped_word.store r.head_w r.head_local

let recv c =
  let r = c.in_ring in
  let buf = Buffer.create 256 in
  let nfr = ref 0 in
  let rec go ~mid =
    let h = next_header c ~mid in
    if header_kind h <> kind_bytes then
      Wire.raise_protocol "floats frame where a byte message was expected";
    let len = header_len h in
    let off = (r.head_local mod r.cap) + word in
    for i = 0 to len - 1 do
      Buffer.add_char buf (A1.get r.data_chars (off + i))
    done;
    consume c ~payload_bytes:len;
    incr nfr;
    if not (header_last h) then go ~mid:true
  in
  go ~mid:false;
  let payload = Buffer.contents buf in
  c.counters.Wire.msgs_recv <- c.counters.Wire.msgs_recv + 1;
  c.counters.Wire.packets_recv <- c.counters.Wire.packets_recv + !nfr;
  c.counters.Wire.bytes_recv <-
    c.counters.Wire.bytes_recv + String.length payload + (!nfr * word);
  c.counters.Wire.payload_bytes_recv <-
    c.counters.Wire.payload_bytes_recv + String.length payload;
  payload

let recv_floats c ~len:total =
  if total < 0 then invalid_arg "Shm_ring.recv_floats: negative length";
  let r = c.in_ring in
  let arr = Array.make total 0.0 in
  let got = ref 0 in
  let nfr = ref 0 in
  let finished = ref false in
  while not !finished do
    let h = next_header c ~mid:(!nfr > 0) in
    if header_kind h <> kind_floats then
      Wire.raise_protocol "byte frame where a floats message was expected";
    let n = header_len h in
    if !got + n > total then
      Wire.raise_protocol
        (Printf.sprintf "floats message longer than announced (%d > %d)"
           (!got + n) total);
    let base = ((r.head_local mod r.cap) + word) / 8 in
    for i = 0 to n - 1 do
      Array.unsafe_set arr (!got + i) (A1.get r.data_floats (base + i))
    done;
    consume c ~payload_bytes:(n * 8);
    got := !got + n;
    incr nfr;
    if header_last h then finished := true
  done;
  if !got <> total then
    Wire.raise_protocol
      (Printf.sprintf "floats message shorter than announced (%d < %d)" !got
         total);
  let bytes = total * 8 in
  c.counters.Wire.msgs_recv <- c.counters.Wire.msgs_recv + 1;
  c.counters.Wire.packets_recv <- c.counters.Wire.packets_recv + !nfr;
  c.counters.Wire.bytes_recv <- c.counters.Wire.bytes_recv + bytes + (!nfr * word);
  c.counters.Wire.payload_bytes_recv <-
    c.counters.Wire.payload_bytes_recv + bytes;
  c.counters.Wire.zero_copy_bytes_recv <-
    c.counters.Wire.zero_copy_bytes_recv + bytes;
  arr

(* ---------------- TRANSPORT packaging ---------------- *)

module Transport : Wire.TRANSPORT with type t = conn = struct
  type t = conn

  let send = send
  let recv = recv
  let send_floats = send_floats
  let recv_floats = recv_floats
  let counters = counters
  let wait_fd = wait_fd
  let input_ready = input_ready
  let close = close
end
