(** The executor's lock-free protocols as model-checking scenarios,
    plus deliberately broken mutants the checker must catch.

    Three protocol families, matching the paper's executor design:

    - {b Chase–Lev deque} (Sec. IV-A.2): push/pop/steal consume every
      element exactly once even when the owner's pop races a steal for
      the last element.  The real {!Repro_deque.Ws_deque} code is
      instantiated with the tracing shim — the checker explores the
      production algorithm, not a model of it.
      The fiber join's [pop_if] (take a still-queued child back off the
      bottom) races a thief on a one-element deque the same way; its
      mutant, which skips the CAS on [top], runs the child twice.
    - {b Future claim} (eager black-holing, Sec. IV-A.3): the
      Todo→Running CAS makes claiming atomic with starting evaluation,
      so two forcers plus a stealing worker evaluate the body exactly
      once; forcers help run queued sparks while waiting.  Again the
      real {!Repro_exec.Future} functor, paired with a deterministic
      model pool.
    - {b Pool park/unpark handshake}: a distilled model of
      [Pool.park]/[Pool.signal_work] — announce sleeper, snapshot the
      wake generation, re-check, wait on [tasks or generation change].
      The mutant that re-checks {e before} announcing loses the wakeup
      and deadlocks, which the checker reports with the interleaving.
    - {b Fiber suspend/resume handshake}: the real
      {!Repro_fiber.Promise} functor over traced atomics — a fiber
      parking on a promise races the fulfiller through [add_waiter]'s
      CAS waiter list (either the cons lands before the resolve, or the
      retry observes the resolved state and self-runs), and the
      once-wrapped resume survives racing wakers (fulfil vs cancel).
      The resume-before-park mutant publishes the parked resume after
      its emptiness check, exactly the window the CAS list closes, and
      sleeps forever on a promise that is already resolved.
    - {b Fiber cancellation registry}: the real {!Repro_fiber.Kids}
      functor — a spawn registers its child {e then} reads the parent's
      flag while a canceller sets the flag {e then} snapshots the
      registry, so the child is always cancelled.  The
      check-then-register mutant loses the cancellation.
    - {b SPSC ring} (the shm transport's frame handshake): the real
      {!Repro_dist.Shm_ring.Spsc} functor over traced control words —
      write the slot {e then} publish the tail; observe, read, {e then}
      release.  Explored at capacity 1 (every push wraps and waits on
      backpressure) and capacity 2 (producer and consumer overlap).
      The mutant that publishes the tail before the slot holds the
      value hands the consumer a stale slot — the exact reordering the
      production ring's fences forbid.

    The mutants are distilled (small named cells) so their violation
    traces read as a story. *)

module D = Repro_deque.Ws_deque.Make (Sched.Atomic)

exception Boom

type expectation = Must_pass | Must_fail

type config = {
  cname : string;
  descr : string;
  expect : expectation;
  scenario : unit -> (string * (unit -> unit)) list * (unit -> unit);
}

let run ?on_trace (c : config) =
  Sched.check ?on_trace ~name:c.cname c.scenario

let verdict (c : config) (r : Sched.result) =
  match (c.expect, r) with
  | Must_pass, Sched.Pass _ | Must_fail, Sched.Fail _ -> true
  | Must_pass, Sched.Fail _ | Must_fail, Sched.Pass _ -> false

(* ------------------------------------------------------------------ *)
(* Chase–Lev deque                                                     *)
(* ------------------------------------------------------------------ *)

let pp_consumed got =
  Printf.sprintf "[%s]" (String.concat "; " (List.map string_of_int got))

(* Owner pops toward empty while a thief steals: the last element is
   decided by the CAS race on [top]; nothing may be lost or duplicated. *)
let deque_owner_vs_thief () =
  let q = D.create () in
  D.push q 1;
  D.push q 2;
  let popped = ref [] in
  let stolen = ref None in
  ( [
      ( "owner",
        fun () ->
          (match D.pop q with Some v -> popped := v :: !popped | None -> ());
          match D.pop q with Some v -> popped := v :: !popped | None -> () );
      ("thief", fun () -> stolen := D.steal q);
    ],
    fun () ->
      let got =
        List.sort compare
          (!popped @ Option.to_list !stolen @ D.drain q)
      in
      if got <> [ 1; 2 ] then
        failwith
          (Printf.sprintf "elements consumed %s, want each of 1,2 exactly once"
             (pp_consumed got)) )

(* Two thieves racing each other and the owner (who also pushes mid-run,
   exercising the bottom/top protocol from both ends). *)
let deque_two_thieves () =
  let q = D.create () in
  D.push q 1;
  D.push q 2;
  let po = ref None and s1 = ref None and s2 = ref None in
  ( [
      ( "owner",
        fun () ->
          D.push q 3;
          po := D.pop q );
      ("thief1", fun () -> s1 := D.steal q);
      ("thief2", fun () -> s2 := D.steal q);
    ],
    fun () ->
      let got =
        List.sort compare
          (List.concat_map Option.to_list [ !po; !s1; !s2 ] @ D.drain q)
      in
      if got <> [ 1; 2; 3 ] then
        failwith
          (Printf.sprintf
             "elements consumed %s, want each of 1,2,3 exactly once"
             (pp_consumed got)) )

(* Mutant: a distilled deque whose owner takes the LAST element without
   racing the CAS on [top] — the exact window Chase–Lev's pop closes.
   A thief that read [top] before the owner's decrement of [bottom]
   consumes the same element again. *)
let deque_missing_cas_mutant () =
  let top = Sched.Atomic.make 0 in
  let bottom = Sched.Atomic.make 1 in
  let taken = Sched.Atomic.make 0 in
  Sched.set_name top "top";
  Sched.set_name bottom "bottom";
  Sched.set_name taken "taken";
  List.iter
    (fun c -> Sched.set_printer c string_of_int)
    [ top; bottom; taken ];
  let pop () =
    let b = Sched.Atomic.get bottom - 1 in
    Sched.Atomic.set bottom b;
    let t = Sched.Atomic.get top in
    if b - t >= 0 then
      (* BUG: last element taken with no compare_and_set on top *)
      Sched.Atomic.incr taken
    else Sched.Atomic.set bottom t
  in
  let steal () =
    let t = Sched.Atomic.get top in
    let b = Sched.Atomic.get bottom in
    if b - t > 0 then
      if Sched.Atomic.compare_and_set top t (t + 1) then
        Sched.Atomic.incr taken
  in
  ( [ ("owner", pop); ("thief", steal) ],
    fun () ->
      let n = Sched.Atomic.get taken in
      if n <> 1 then
        failwith
          (Printf.sprintf "single element consumed %d times (want 1)" n) )

(* A fiber join takes its still-queued child back off the bottom of its
   own one-element deque with [pop_if] while a thief steals from the
   top: whichever side wins runs the child's start task, and it runs
   exactly once (leftovers are drained and run by the check). *)
let deque_pop_if_vs_thief () =
  let q = D.create () in
  let runs = Sched.Atomic.make 0 in
  Sched.set_name runs "runs";
  Sched.set_printer runs string_of_int;
  let child () = Sched.Atomic.incr runs in
  D.push q child;
  ( [
      ("joiner", fun () -> if D.pop_if q child then child ());
      ("thief", fun () -> Option.iter (fun t -> t ()) (D.steal q));
    ],
    fun () ->
      List.iter (fun t -> t ()) (D.drain q);
      let n = Sched.Atomic.get runs in
      if n <> 1 then
        failwith
          (Printf.sprintf "child start task ran %d times (want 1)" n) )

(* Mutant: a distilled [pop_if] that, finding its child in the last
   slot, takes it without racing the CAS on [top].  A thief that read
   [top] and [bottom] before the joiner's decrement wins its CAS too,
   and the child runs twice. *)
let deque_pop_if_missing_cas_mutant () =
  let top = Sched.Atomic.make 0 in
  let bottom = Sched.Atomic.make 1 in
  let runs = Sched.Atomic.make 0 in
  Sched.set_name top "top";
  Sched.set_name bottom "bottom";
  Sched.set_name runs "runs";
  List.iter (fun c -> Sched.set_printer c string_of_int) [ top; bottom; runs ];
  let pop_if () =
    let b = Sched.Atomic.get bottom - 1 in
    if b >= Sched.Atomic.get top then begin
      Sched.Atomic.set bottom b;
      (* BUG: last element taken with no compare_and_set on top *)
      Sched.Atomic.incr runs
    end
  in
  let steal () =
    let t = Sched.Atomic.get top in
    let b = Sched.Atomic.get bottom in
    if b - t > 0 && Sched.Atomic.compare_and_set top t (t + 1) then
      Sched.Atomic.incr runs
  in
  ( [ ("joiner", pop_if); ("thief", steal) ],
    fun () ->
      let n = Sched.Atomic.get runs in
      if n <> 1 then
        failwith
          (Printf.sprintf "child start task ran %d times (want 1)" n) )

(* ------------------------------------------------------------------ *)
(* Future claim protocol (eager black-holing)                          *)
(* ------------------------------------------------------------------ *)

(* Deterministic model pool for the Future functor: a traced atomic
   holding the runner queue, help = CAS-pop + run, and idle_wait blocks
   the simulated thread on the future's completion predicate. *)
module type MODEL_POOL = sig
  include Repro_exec.Future.POOL_BACKEND with type ctx = unit

  val help_all : unit -> unit
end

let model_pool () : (module MODEL_POOL) =
  let queue : (unit -> unit) list Sched.Atomic.t = Sched.Atomic.make [] in
  Sched.set_name queue "runq";
  Sched.set_printer queue (fun q ->
      Printf.sprintf "<%d runner(s)>" (List.length q));
  (module struct
    type ctx = unit

    let current () = Some ()

    let push () task =
      let rec go () =
        let q = Sched.Atomic.get queue in
        if not (Sched.Atomic.compare_and_set queue q (task :: q)) then go ()
      in
      go ()

    let help () =
      let rec go () =
        match Sched.Atomic.get queue with
        | [] -> false
        | task :: rest as q ->
            if Sched.Atomic.compare_and_set queue q rest then begin
              task ();
              true
            end
            else go ()
      in
      go ()

    let help_all () = while help () do () done
    let note_run () = ()
    let note_fizzle () = ()

    (* trace hooks: the model pool records nothing *)
    let note_eval_begin () = ()
    let note_eval_end () = ()
    let note_force () = ()

    let idle_wait done_ idle =
      Sched.wait_until done_;
      idle
  end)

(* Two forcers race a stealing worker for one sparked future: the
   Todo→Running CAS must admit exactly one evaluation, and both forcers
   must observe the value. *)
let future_exactly_once () =
  let module P = (val model_pool ()) in
  let module F = Repro_exec.Future.Make (Sched.Atomic) (P) in
  let evals = Sched.Atomic.make 0 in
  Sched.set_name evals "evals";
  Sched.set_printer evals string_of_int;
  let fut =
    F.spark (fun () ->
        Sched.Atomic.incr evals;
        42)
  in
  let r1 = ref 0 and r2 = ref 0 in
  ( [
      ("forcer1", fun () -> r1 := F.force fut);
      ("forcer2", fun () -> r2 := F.force fut);
      ("worker", fun () -> ignore (P.help ()));
    ],
    fun () ->
      let e = Sched.Atomic.get evals in
      if e <> 1 then
        failwith (Printf.sprintf "body evaluated %d times (want exactly 1)" e);
      if !r1 <> 42 || !r2 <> 42 then
        failwith
          (Printf.sprintf "forcers observed %d and %d (want 42)" !r1 !r2) )

(* A forcer needing two sparked futures helps run queued sparks while
   the worker holds one of them Running. *)
let future_help_while_waiting () =
  let module P = (val model_pool ()) in
  let module F = Repro_exec.Future.Make (Sched.Atomic) (P) in
  let e1 = Sched.Atomic.make 0 and e2 = Sched.Atomic.make 0 in
  Sched.set_name e1 "evals1";
  Sched.set_name e2 "evals2";
  let f1 =
    F.spark (fun () ->
        Sched.Atomic.incr e1;
        1)
  in
  let f2 =
    F.spark (fun () ->
        Sched.Atomic.incr e2;
        2)
  in
  let r = ref 0 in
  ( [
      ("forcer", fun () -> r := F.force f1 + F.force f2);
      ("worker", fun () -> P.help_all ());
    ],
    fun () ->
      if !r <> 3 then failwith (Printf.sprintf "forcer computed %d, want 3" !r);
      let a = Sched.Atomic.get e1 and b = Sched.Atomic.get e2 in
      if a <> 1 || b <> 1 then
        failwith
          (Printf.sprintf "bodies evaluated %d and %d times (want 1 and 1)" a b)
  )

(* An exception raised by the sparked body must surface wherever the
   future is forced, even when a stealing worker ran the body. *)
let future_exception () =
  let module P = (val model_pool ()) in
  let module F = Repro_exec.Future.Make (Sched.Atomic) (P) in
  let fut = F.spark (fun () : int -> raise Boom) in
  let ok = ref false in
  ( [
      ( "forcer",
        fun () ->
          match F.force fut with
          | _ -> ()
          | exception Boom -> ok := true );
      ("worker", fun () -> ignore (P.help ()));
    ],
    fun () ->
      if not !ok then failwith "Boom did not propagate to the forcer" )

(* Mutant: lazy black-holing — claim by plain read-then-write instead
   of CAS (the simulator's unsynchronised window; the paper's Sec.
   IV-A.3 discussion of duplicate evaluation).  Two forcers can both
   read Todo before either writes Running and evaluate twice; the race
   detector additionally flags the unordered writes to [state]. *)
let future_lazy_blackhole_mutant () =
  let state = Sched.Atomic.make `Todo in
  let evals = Sched.Atomic.make 0 in
  Sched.set_name state "state";
  Sched.set_printer state (function
    | `Todo -> "Todo"
    | `Running -> "Running"
    | `Done -> "Done");
  Sched.set_name evals "evals";
  Sched.set_printer evals string_of_int;
  let claim () =
    match Sched.Atomic.get state with
    | `Todo ->
        (* BUG: the read above and this write are not one atomic step *)
        Sched.Atomic.set state `Running;
        Sched.Atomic.incr evals;
        Sched.Atomic.set state `Done
    | `Running | `Done -> ()
  in
  ( [ ("forcer1", claim); ("forcer2", claim) ],
    fun () ->
      let e = Sched.Atomic.get evals in
      if e <> 1 then
        failwith (Printf.sprintf "body evaluated %d times (want exactly 1)" e)
  )

(* ------------------------------------------------------------------ *)
(* Pool park/unpark handshake                                          *)
(* ------------------------------------------------------------------ *)

(* Distilled [Pool.park] / [Pool.signal_work]: the worker announces
   itself a sleeper, snapshots the wake generation, re-checks for work,
   and waits on [work present or generation changed]; the pusher makes
   work visible first, then wakes if it sees a sleeper.  Every
   interleaving must end with the task consumed. *)
let pool_handshake () =
  let tasks = Sched.Atomic.make 0 in
  let sleepers = Sched.Atomic.make 0 in
  let wake_gen = Sched.Atomic.make 0 in
  let taken = Sched.Atomic.make 0 in
  Sched.set_name tasks "tasks";
  Sched.set_name sleepers "sleepers";
  Sched.set_name wake_gen "wake_gen";
  Sched.set_name taken "taken";
  List.iter
    (fun c -> Sched.set_printer c string_of_int)
    [ tasks; sleepers; wake_gen; taken ];
  let rec take () =
    let n = Sched.Atomic.get tasks in
    if n > 0 then begin
      if Sched.Atomic.compare_and_set tasks n (n - 1) then
        Sched.Atomic.incr taken
      else take ()
    end
    else begin
      Sched.Atomic.incr sleepers;
      let g = Sched.Atomic.get wake_gen in
      (* Final re-check *after* announcing the sleeper, as Pool.park *)
      if Sched.Atomic.get tasks = 0 then
        Sched.wait_until (fun () ->
            Sched.Atomic.get tasks > 0 || Sched.Atomic.get wake_gen <> g);
      Sched.Atomic.decr sleepers;
      take ()
    end
  in
  let pusher () =
    Sched.Atomic.incr tasks;
    if Sched.Atomic.get sleepers > 0 then Sched.Atomic.incr wake_gen
  in
  ( [ ("worker", take); ("pusher", pusher) ],
    fun () ->
      let k = Sched.Atomic.get taken in
      if k <> 1 then failwith (Printf.sprintf "task taken %d times (want 1)" k)
  )

(* Mutant: check-then-park — the worker re-checks for work *before*
   announcing itself as a sleeper and waits on a wake flag only.  The
   pusher can read [sleepers = 0] in the window between the worker's
   check and its announcement, skip the wake, and the worker sleeps
   forever on a task that is already there: the classic lost wakeup,
   reported as a deadlock. *)
let pool_lost_wakeup_mutant () =
  let tasks = Sched.Atomic.make 0 in
  let sleepers = Sched.Atomic.make 0 in
  let woken = Sched.Atomic.make 0 in
  let taken = Sched.Atomic.make 0 in
  Sched.set_name tasks "tasks";
  Sched.set_name sleepers "sleepers";
  Sched.set_name woken "woken";
  Sched.set_name taken "taken";
  List.iter
    (fun c -> Sched.set_printer c string_of_int)
    [ tasks; sleepers; woken; taken ];
  let worker () =
    if Sched.Atomic.get tasks = 0 then begin
      (* BUG: sleeper announced after the emptiness check; wait ignores
         the task count *)
      Sched.Atomic.incr sleepers;
      Sched.wait_until (fun () -> Sched.Atomic.get woken > 0);
      Sched.Atomic.decr sleepers
    end;
    let n = Sched.Atomic.get tasks in
    if n > 0 then
      if Sched.Atomic.compare_and_set tasks n (n - 1) then
        Sched.Atomic.incr taken
  in
  let pusher () =
    Sched.Atomic.incr tasks;
    if Sched.Atomic.get sleepers > 0 then Sched.Atomic.incr woken
  in
  ( [ ("worker", worker); ("pusher", pusher) ],
    fun () ->
      let k = Sched.Atomic.get taken in
      if k <> 1 then failwith (Printf.sprintf "task taken %d times (want 1)" k)
  )

(* ------------------------------------------------------------------ *)
(* Fiber suspend/resume handshake (promise park vs fulfil)             *)
(* ------------------------------------------------------------------ *)

(* The production promise code under the DPOR scheduler.  [Pr.t]'s
   single CAS state word is what the fiber runtime parks on. *)
module Pr = Repro_fiber.Promise.Make (Sched.Atomic)

(* A fiber parks on a pending promise while the fulfiller races it:
   the distilled [Fiber.await] path — peek, register the resume via
   add_waiter, wait for the wakeup.  add_waiter's CAS either lands the
   cons before the resolver's transition (the resolver runs it) or its
   retry observes the resolved state and runs the callback itself, so
   the wakeup must arrive in every interleaving. *)
let promise_park_vs_fulfil () =
  let p : int Pr.t = Pr.create () in
  let woken = Sched.Atomic.make 0 in
  let got = Sched.Atomic.make 0 in
  Sched.set_name woken "woken";
  Sched.set_name got "got";
  List.iter (fun c -> Sched.set_printer c string_of_int) [ woken; got ];
  ( [
      ( "fiber",
        fun () ->
          (match Pr.peek p with
          | Some _ -> Sched.Atomic.incr woken
          | None -> Pr.add_waiter p (fun () -> Sched.Atomic.incr woken));
          Sched.wait_until (fun () -> Sched.Atomic.get woken > 0);
          match Pr.peek p with
          | Some (Ok v) -> Sched.Atomic.set got v
          | _ -> () );
      ("fulfiller", fun () -> ignore (Pr.try_fulfil p 42));
    ],
    fun () ->
      let w = Sched.Atomic.get woken in
      if w <> 1 then
        failwith (Printf.sprintf "wakeup delivered %d times (want 1)" w);
      let v = Sched.Atomic.get got in
      if v <> 42 then
        failwith (Printf.sprintf "fiber observed %d after wakeup (want 42)" v)
  )

(* Two fibers park on the same promise; both must be woken with the
   value no matter how their registrations interleave with the
   resolution. *)
let promise_multi_waiter () =
  let p : int Pr.t = Pr.create () in
  let w1 = Sched.Atomic.make 0 and w2 = Sched.Atomic.make 0 in
  Sched.set_name w1 "woken1";
  Sched.set_name w2 "woken2";
  List.iter (fun c -> Sched.set_printer c string_of_int) [ w1; w2 ];
  let waiter cell () =
    (match Pr.peek p with
    | Some _ -> Sched.Atomic.incr cell
    | None -> Pr.add_waiter p (fun () -> Sched.Atomic.incr cell));
    Sched.wait_until (fun () -> Sched.Atomic.get cell > 0)
  in
  ( [
      ("fiber1", waiter w1);
      ("fiber2", waiter w2);
      ("fulfiller", fun () -> ignore (Pr.try_fulfil p 7));
    ],
    fun () ->
      let a = Sched.Atomic.get w1 and b = Sched.Atomic.get w2 in
      if a <> 1 || b <> 1 then
        failwith
          (Printf.sprintf "waiters woken %d and %d times (want 1 and 1)" a b)
  )

(* Racing resolvers: exactly one try_fulfil wins, and a pre-registered
   waiter runs exactly once (the winner runs the captured list; the
   loser must not re-run it). *)
let promise_double_fulfil () =
  let p : int Pr.t = Pr.create () in
  let wins = Sched.Atomic.make 0 in
  let fired = Sched.Atomic.make 0 in
  Sched.set_name wins "wins";
  Sched.set_name fired "fired";
  List.iter (fun c -> Sched.set_printer c string_of_int) [ wins; fired ];
  Pr.add_waiter p (fun () -> Sched.Atomic.incr fired);
  let resolver v () =
    if Pr.try_fulfil p v then Sched.Atomic.incr wins
  in
  ( [ ("fulfiller1", resolver 1); ("fulfiller2", resolver 2) ],
    fun () ->
      let w = Sched.Atomic.get wins and f = Sched.Atomic.get fired in
      if w <> 1 then
        failwith (Printf.sprintf "%d resolvers won the CAS (want 1)" w);
      if f <> 1 then
        failwith (Printf.sprintf "waiter callback ran %d times (want 1)" f) )

(* The cancel-vs-fulfil race on one parked fiber: both wakers fire the
   same once-wrapped resume; the continuation must be resumed exactly
   once (one-shot continuations make a double resume a crash in
   production). *)
let promise_once_resume () =
  let resumed = Sched.Atomic.make 0 in
  Sched.set_name resumed "resumed";
  Sched.set_printer resumed string_of_int;
  let resume = Pr.once (fun () -> Sched.Atomic.incr resumed) in
  ( [ ("fulfiller", fun () -> resume ()); ("canceller", fun () -> resume ()) ],
    fun () ->
      let r = Sched.Atomic.get resumed in
      if r <> 1 then
        failwith (Printf.sprintf "continuation resumed %d times (want 1)" r) )

(* Mutant: resume-before-park.  The suspending fiber publishes its
   parked resume *after* checking the promise, and the fulfiller looks
   for a parked fiber instead of going through the waiter-list CAS.  A
   resolution landing in the window between the fiber's check and its
   park sees no parked resume, skips the wake, and the fiber sleeps
   forever on a promise that is already resolved — the lost wakeup the
   production order (publish, register via CAS list, then re-check)
   makes impossible. *)
let promise_resume_before_park_mutant () =
  let resolved = Sched.Atomic.make 0 in
  let parked = Sched.Atomic.make 0 in
  let woken = Sched.Atomic.make 0 in
  Sched.set_name resolved "resolved";
  Sched.set_name parked "parked";
  Sched.set_name woken "woken";
  List.iter
    (fun c -> Sched.set_printer c string_of_int)
    [ resolved; parked; woken ];
  let fiber () =
    if Sched.Atomic.get resolved = 0 then begin
      (* BUG: the park is published after the emptiness check; a
         fulfiller scheduled into this window has already been and
         gone *)
      Sched.Atomic.incr parked;
      Sched.wait_until (fun () -> Sched.Atomic.get woken > 0)
    end
  in
  let fulfiller () =
    Sched.Atomic.incr resolved;
    if Sched.Atomic.get parked > 0 then Sched.Atomic.incr woken
  in
  ( [ ("fiber", fiber); ("fulfiller", fulfiller) ],
    fun () ->
      if Sched.Atomic.get resolved <> 1 then failwith "promise not resolved" )

(* ------------------------------------------------------------------ *)
(* Fiber cancellation registry (spawn vs cancel)                       *)
(* ------------------------------------------------------------------ *)

(* The production registry code under the DPOR scheduler; a child is
   modelled by its cancelled flag. *)
module K = Repro_fiber.Kids.Make (Sched.Atomic)

let flag name =
  let c = Sched.Atomic.make false in
  Sched.set_name c name;
  Sched.set_printer c string_of_bool;
  c

(* [Fiber.spawn] racing [Fiber.cancel] on the parent.  The spawner
   registers the child, then reads the parent's flag; the canceller
   sets the flag, then cancels every child in a registry snapshot.
   [register_first:false] is the mutant that reads the flag before
   registering: a cancel landing between the two sees the flag unset
   on one side and an empty registry on the other. *)
let spawn_vs_cancel ~register_first () =
  let parent = flag "parent_cancelled" in
  let child = flag "child_cancelled" in
  let kids = K.create () in
  let slot = K.slot () in
  let spawn () =
    if register_first then begin
      K.register kids slot child;
      if Sched.Atomic.get parent then Sched.Atomic.set child true
    end
    else begin
      let cancelled = Sched.Atomic.get parent in
      K.register kids slot child;
      if cancelled then Sched.Atomic.set child true
    end
  in
  let cancel () =
    Sched.Atomic.set parent true;
    List.iter (fun c -> Sched.Atomic.set c true) (K.snapshot kids)
  in
  ( [ ("spawner", spawn); ("canceller", cancel) ],
    fun () ->
      if not (Sched.Atomic.get child) then
        failwith "child spawned during the cancel was never cancelled" )

(* ------------------------------------------------------------------ *)
(* SPSC ring (shm transport frame handshake)                           *)
(* ------------------------------------------------------------------ *)

(* The production handshake itself: [Shm_ring]'s [Spsc] functor
   instantiated with traced cells as the control words and a plain
   array as the (unfenced) slot storage — exactly the production
   shape, where the data frames are plain mapped memory and only
   head/tail are control words. *)
module Spsc_word = struct
  type t = int Sched.Atomic.t

  let load = Sched.Atomic.get
  let store = Sched.Atomic.set
end

module Ring = Repro_dist.Shm_ring.Spsc (Spsc_word)

let make_ring cap =
  let tail = Sched.Atomic.make 0 and head = Sched.Atomic.make 0 in
  Sched.set_name tail "tail";
  Sched.set_name head "head";
  List.iter (fun c -> Sched.set_printer c string_of_int) [ tail; head ];
  let slots = Array.make cap 0 in
  Ring.create ~cap ~tail ~head ~get:(Array.get slots) ~set:(Array.set slots)

(* Blocking in SPSC terms: each side waits (read-only predicate, as
   [wait_until] requires) until its operation cannot fail — sound
   because it is the only pusher resp. popper. *)
let push_block r v =
  Sched.wait_until (fun () -> Ring.length r < r.Ring.cap);
  if not (Ring.try_push r v) then failwith "push failed below capacity"

let pop_block r =
  Sched.wait_until (fun () -> Ring.length r > 0);
  match Ring.try_pop r with
  | Some v -> v
  | None -> failwith "pop failed on non-empty ring"

let spsc_scenario ~cap ~values () =
  let r = make_ring cap in
  let got = ref [] and ngot = ref 0 in
  let record v =
    got := v :: !got;
    incr ngot
  in
  ( [
      ("producer", fun () -> List.iter (fun v -> push_block r v) values);
      ( "consumer",
        fun () ->
          (* eager probe that may catch the ring still empty: keeps
             the schedule genuinely branching even at capacity 1,
             where the blocking waits otherwise force one alternation *)
          (match Ring.try_pop r with Some v -> record v | None -> ());
          while !ngot < List.length values do
            record (pop_block r)
          done );
    ],
    fun () ->
      let got = List.rev !got in
      if got <> values then
        failwith
          (Printf.sprintf "consumed %s, want %s in order" (pp_consumed got)
             (pp_consumed values));
      if Ring.length r <> 0 then failwith "ring not empty at the end" )

(* cap 1: the cursors lap the ring on every element, so each push
   waits out backpressure and each slot index is reused. *)
let spsc_wrap () = spsc_scenario ~cap:1 ~values:[ 1; 2; 3 ] ()

(* cap 2: producer and consumer genuinely overlap inside the ring. *)
let spsc_overlap () = spsc_scenario ~cap:2 ~values:[ 1; 2; 3 ] ()

(* Mutant: the push publishes the new tail *before* the slot holds the
   value.  A consumer scheduled into that window observes the bumped
   tail, reads the stale slot, and hands out a value that was never
   pushed — the reordering [Shm_ring.write_frame]'s
   publish-after-write discipline (and its fence) forbids. *)
let spsc_publish_before_write_mutant () =
  let cap = 2 in
  let tail = Sched.Atomic.make 0 and head = Sched.Atomic.make 0 in
  let slots = Array.init cap (fun _ -> Sched.Atomic.make 0) in
  Sched.set_name tail "tail";
  Sched.set_name head "head";
  Array.iteri (fun i c -> Sched.set_name c (Printf.sprintf "slot%d" i)) slots;
  List.iter
    (fun c -> Sched.set_printer c string_of_int)
    (tail :: head :: Array.to_list slots);
  let push v =
    let t = Sched.Atomic.get tail in
    (* BUG: tail published first; the slot write races the consumer *)
    Sched.Atomic.set tail (t + 1);
    Sched.Atomic.set slots.(t mod cap) v
  in
  let pop_block () =
    Sched.wait_until
      (fun () -> Sched.Atomic.get tail - Sched.Atomic.get head > 0);
    let h = Sched.Atomic.get head in
    let v = Sched.Atomic.get slots.(h mod cap) in
    Sched.Atomic.set head (h + 1);
    v
  in
  let got = ref [] in
  ( [
      ( "producer",
        fun () ->
          push 1;
          push 2 );
      ( "consumer",
        fun () ->
          got := pop_block () :: !got;
          got := pop_block () :: !got );
    ],
    fun () ->
      let got = List.rev !got in
      if got <> [ 1; 2 ] then
        failwith
          (Printf.sprintf "consumed %s, want [1; 2] in order" (pp_consumed got))
  )

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let protocols =
  [
    {
      cname = "deque-owner-vs-thief";
      descr = "Chase-Lev: owner pops to empty racing one thief (real code)";
      expect = Must_pass;
      scenario = deque_owner_vs_thief;
    };
    {
      cname = "deque-two-thieves";
      descr = "Chase-Lev: owner push+pop racing two thieves (real code)";
      expect = Must_pass;
      scenario = deque_two_thieves;
    };
    {
      cname = "deque-pop-if-vs-thief";
      descr = "fiber join's pop_if races a thief: child runs once (real code)";
      expect = Must_pass;
      scenario = deque_pop_if_vs_thief;
    };
    {
      cname = "future-exactly-once";
      descr = "eager black-hole CAS: 2 forcers + stealing worker, 1 eval";
      expect = Must_pass;
      scenario = future_exactly_once;
    };
    {
      cname = "future-help-while-waiting";
      descr = "forcer helps run queued sparks while its future is Running";
      expect = Must_pass;
      scenario = future_help_while_waiting;
    };
    {
      cname = "future-exception";
      descr = "sparked body's exception surfaces at force";
      expect = Must_pass;
      scenario = future_exception;
    };
    {
      cname = "pool-park-handshake";
      descr = "sleeper/wake_gen park protocol: task always consumed";
      expect = Must_pass;
      scenario = pool_handshake;
    };
    {
      cname = "promise-park-vs-fulfil";
      descr = "fiber parks on promise racing the fulfiller (real code)";
      expect = Must_pass;
      scenario = promise_park_vs_fulfil;
    };
    {
      cname = "promise-multi-waiter";
      descr = "two fibers park on one promise: both woken with the value";
      expect = Must_pass;
      scenario = promise_multi_waiter;
    };
    {
      cname = "promise-double-fulfil";
      descr = "racing resolvers: one CAS winner, waiter runs exactly once";
      expect = Must_pass;
      scenario = promise_double_fulfil;
    };
    {
      cname = "promise-once-resume";
      descr = "fulfil vs cancel race one once-wrapped resume: fires once";
      expect = Must_pass;
      scenario = promise_once_resume;
    };
    {
      cname = "fiber-spawn-vs-cancel";
      descr = "spawn registers then checks vs cancel: child cancelled (real code)";
      expect = Must_pass;
      scenario = spawn_vs_cancel ~register_first:true;
    };
    {
      cname = "spsc-ring-wrap";
      descr = "shm SPSC ring at cap 1: FIFO through full wrap-around (real code)";
      expect = Must_pass;
      scenario = spsc_wrap;
    };
    {
      cname = "spsc-ring-overlap";
      descr = "shm SPSC ring at cap 2: producer/consumer overlap (real code)";
      expect = Must_pass;
      scenario = spsc_overlap;
    };
  ]

let mutants =
  [
    {
      cname = "mutant-deque-missing-cas";
      descr = "pop takes last element without CAS: duplicate consumption";
      expect = Must_fail;
      scenario = deque_missing_cas_mutant;
    };
    {
      cname = "mutant-deque-pop-if-missing-cas";
      descr = "pop_if takes last element without CAS: child runs twice";
      expect = Must_fail;
      scenario = deque_pop_if_missing_cas_mutant;
    };
    {
      cname = "mutant-lazy-blackhole";
      descr = "claim by read-then-write: double evaluation";
      expect = Must_fail;
      scenario = future_lazy_blackhole_mutant;
    };
    {
      cname = "mutant-lost-wakeup";
      descr = "check-then-park: pusher misses sleeper, worker deadlocks";
      expect = Must_fail;
      scenario = pool_lost_wakeup_mutant;
    };
    {
      cname = "mutant-promise-resume-before-park";
      descr = "fiber parks after its check: fulfiller misses it, lost wakeup";
      expect = Must_fail;
      scenario = promise_resume_before_park_mutant;
    };
    {
      cname = "mutant-fiber-check-then-register";
      descr = "spawn checks the flag before registering: cancel lost";
      expect = Must_fail;
      scenario = spawn_vs_cancel ~register_first:false;
    };
    {
      cname = "mutant-spsc-publish-before-write";
      descr = "ring push publishes tail before the slot: stale read";
      expect = Must_fail;
      scenario = spsc_publish_before_write_mutant;
    };
  ]

let all = protocols @ mutants

let find name =
  match List.find_opt (fun c -> c.cname = name) all with
  | Some c -> c
  | None -> invalid_arg ("Protocols.find: unknown config " ^ name)
