(** Tests for the effects-based fiber runtime ([lib/fiber]): promise
    semantics against a sequential model, fiber scheduling on 1..4
    domains, cancellation propagation, cross-domain resumes, and the
    100k-fiber smoke with its live-fiber high-water mark. *)

module Pool = Repro_exec.Pool
module Future = Repro_exec.Future
module Fiber = Repro_fiber.Fiber
module Promise = Repro_fiber.Promise

let test_case = Alcotest.test_case
let check = Alcotest.check

(* ---------------- basic running ---------------- *)

let run_returns () =
  let v = Fiber.run ~cores:2 (fun () -> 6 * 7) in
  check Alcotest.int "root value" 42 v

let spawn_join_tree () =
  let v =
    Fiber.run ~cores:2 (fun () ->
        let hs = List.init 10 (fun i -> Fiber.spawn (fun () -> i * i)) in
        List.fold_left (fun acc h -> acc + Fiber.join h) 0 hs)
  in
  check Alcotest.int "sum of squares" 285 v

let root_exception_propagates () =
  Alcotest.check_raises "root raise escapes run" Not_found (fun () ->
      Fiber.run ~cores:2 (fun () -> raise Not_found))

let child_exception_at_join () =
  Fiber.run ~cores:2 (fun () ->
      let h = Fiber.spawn (fun () : int -> raise Not_found) in
      match Fiber.join h with
      | _ -> Alcotest.fail "join returned despite the raise"
      | exception Not_found -> ())

let run_in_reuses_pool () =
  (* run_in on an existing pool, twice: the pool survives for reuse and
     its spark ledger still balances at shutdown *)
  let pool = Pool.create ~cores:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let a = Fiber.run_in pool (fun () -> Fiber.join (Fiber.spawn (fun () -> 1))) in
      let b = Fiber.run_in pool (fun () -> 2) in
      check Alcotest.int "first" 1 a;
      check Alcotest.int "second" 2 b);
  let e = Pool.events pool in
  check Alcotest.int "ledger balances"
    e.Pool.sparks_created
    (e.Pool.sparks_run + e.Pool.sparks_fizzled)

(* ---------------- promise semantics ---------------- *)

let await_after_fulfil () =
  let v =
    Fiber.run ~cores:1 (fun () ->
        let p = Promise.create () in
        Promise.fulfil p 7;
        Fiber.await p)
  in
  check Alcotest.int "already-fulfilled await" 7 v

let await_before_fulfil_one_domain () =
  (* cores:1 — the acceptance regression: fiber A parks on an
     unfulfilled promise; fiber B, multiplexed on the SAME domain, must
     still run (and fulfil it).  If parking wedged the domain this
     deadlocks. *)
  let v =
    Fiber.run ~cores:1 (fun () ->
        let p = Promise.create () in
        let a = Fiber.spawn (fun () -> Fiber.await p + 1) in
        let _b = Fiber.spawn (fun () -> Promise.fulfil p 41) in
        Fiber.join a)
  in
  check Alcotest.int "parked fiber resumed by sibling" 42 v

let broken_promise_raises () =
  Fiber.run ~cores:1 (fun () ->
      let p : int Promise.t = Promise.create () in
      let a =
        Fiber.spawn (fun () ->
            match Fiber.await p with
            | _ -> false
            | exception Not_found -> true)
      in
      let _ = Fiber.spawn (fun () -> Promise.break p Not_found) in
      check Alcotest.bool "await raised the break exn" true (Fiber.join a))

let multi_waiter () =
  let n = 16 in
  let total =
    Fiber.run ~cores:2 (fun () ->
        let p = Promise.create () in
        let hs = List.init n (fun _ -> Fiber.spawn (fun () -> Fiber.await p)) in
        Fiber.yield ();
        Promise.fulfil p 3;
        List.fold_left (fun acc h -> acc + Fiber.join h) 0 hs)
  in
  check Alcotest.int "every waiter woken with the value" (3 * n) total

let fulfil_exactly_once_racing_domains () =
  (* two fibers race try_fulfil from (up to) two domains; exactly one
     wins and a third fiber observes a single coherent value *)
  for _ = 1 to 50 do
    Fiber.run ~cores:2 (fun () ->
        let p = Promise.create () in
        let r1 = Fiber.spawn (fun () -> Promise.try_fulfil p 1) in
        let r2 = Fiber.spawn (fun () -> Promise.try_fulfil p 2) in
        let v = Fiber.await p in
        let w1 = Fiber.join r1 and w2 = Fiber.join r2 in
        check Alcotest.bool "exactly one fulfil wins" true (w1 <> w2);
        check Alcotest.bool "value from the winner" true
          ((v = 1 && w1) || (v = 2 && w2)))
  done

let waiter_callback_exactly_once () =
  (* registered waiters run exactly once even when racing resolvers *)
  for _ = 1 to 50 do
    let hits = Atomic.make 0 in
    Fiber.run ~cores:2 (fun () ->
        let p = Promise.create () in
        Promise.add_waiter p (fun () -> Atomic.incr hits);
        let a = Fiber.spawn (fun () -> ignore (Promise.try_fulfil p 1)) in
        let b = Fiber.spawn (fun () -> ignore (Promise.try_fulfil p 2)) in
        Fiber.join a;
        Fiber.join b);
    check Alcotest.int "callback ran once" 1 (Atomic.get hits)
  done

(* QCheck: promise vs a sequential model.  Ops are applied in order;
   the model tracks resolution state and expected callback count —
   callbacks fire exactly once, never before resolution, immediately
   when registered after it. *)
let promise_qcheck_model =
  QCheck.Test.make ~name:"promise matches sequential model" ~count:300
    QCheck.(small_list (option small_nat))
    (fun ops ->
      (* op = Some v: try_fulfil v; None: add_waiter *)
      let p = Promise.create () in
      let fired = ref 0 in
      let model_resolved = ref None in
      let model_fired = ref 0 in
      let model_pending = ref 0 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun op ->
          (match op with
          | Some v -> (
              let won = Promise.try_fulfil p v in
              match !model_resolved with
              | None ->
                  expect won;
                  model_resolved := Some v;
                  (* resolution releases every pending waiter *)
                  model_fired := !model_fired + !model_pending;
                  model_pending := 0
              | Some _ -> expect (not won))
          | None -> (
              Promise.add_waiter p (fun () -> incr fired);
              match !model_resolved with
              | None -> incr model_pending
              | Some _ -> incr model_fired));
          expect (!fired = !model_fired);
          match (Promise.peek p, !model_resolved) with
          | Some (Ok v), Some v' -> expect (v = v')
          | None, None -> ()
          | _ -> expect false)
        ops;
      !ok)

(* ---------------- scheduling ---------------- *)

let yield_interleaves_on_one_domain () =
  let log =
    Fiber.run ~cores:1 (fun () ->
        let log = ref [] in
        let worker tag () =
          for _ = 1 to 3 do
            log := tag :: !log;
            Fiber.yield ()
          done
        in
        let a = Fiber.spawn (worker "a") in
        let b = Fiber.spawn (worker "b") in
        Fiber.join a;
        Fiber.join b;
        List.rev !log)
  in
  (* both fibers share the single domain; yielding must alternate them
     rather than running one to completion *)
  check Alcotest.bool "a and b interleave" true
    (match log with
    | "a" :: "b" :: _ | "b" :: "a" :: _ -> true
    | _ -> false);
  check Alcotest.int "all six segments ran" 6 (List.length log)

let cross_domain_resume_x20 () =
  (* pin the awaiting fiber and the fulfilling fiber to different
     workers, 20 times: every resume crosses a domain boundary *)
  for i = 1 to 20 do
    let v =
      Fiber.run ~cores:2 (fun () ->
          let p = Promise.create () in
          let a = Fiber.spawn_on 0 (fun () -> Fiber.await p + i) in
          let _ = Fiber.spawn_on 1 (fun () -> Promise.fulfil p 100) in
          Fiber.join a)
    in
    check Alcotest.int "cross-domain resume" (100 + i) v
  done

let spawn_on_pins () =
  Fiber.run ~cores:2 (fun () ->
      let worker_of i =
        Fiber.join
          (Fiber.spawn_on i (fun () ->
               (* a yield forces a reschedule through the pinned inbox *)
               Fiber.yield ();
               match Pool.current () with
               | Some ctx -> Pool.ctx_id ctx
               | None -> -1))
      in
      check Alcotest.int "pinned to worker 0" 0 (worker_of 0);
      check Alcotest.int "pinned to worker 1" 1 (worker_of 1))

let sleep_elapses () =
  let t0 = Unix.gettimeofday () in
  Fiber.run ~cores:1 (fun () ->
      let a = Fiber.spawn (fun () -> Fiber.sleep 0.005) in
      let b = Fiber.spawn (fun () -> Fiber.sleep 0.001) in
      Fiber.join a;
      Fiber.join b);
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "at least the longest sleep elapsed" true (dt >= 0.005)

let force_future_inside_fiber () =
  let v =
    Fiber.run ~cores:2 (fun () ->
        let fut = Future.spark (fun () -> 6 * 7) in
        let h = Fiber.spawn (fun () -> Future.force fut) in
        Fiber.join h + Future.force fut)
  in
  check Alcotest.int "futures and fibers coexist" 84 v

(* ---------------- join inlining ---------------- *)

(* On one domain no thief can take a child, so every join finds its
   child still at the bottom of the deque and runs it inline: the whole
   tree completes without a single park. *)
let inline_tree_never_parks () =
  let rec tree d =
    if d = 0 then 1
    else
      let l = Fiber.spawn (fun () -> tree (d - 1)) in
      let r = tree (d - 1) in
      r + Fiber.join l
  in
  let v, st =
    Fiber.run ~cores:1 (fun () ->
        let v = tree 12 in
        (v, Fiber.stats ()))
  in
  check Alcotest.int "leaves summed" 4096 v;
  check Alcotest.int "every join inlined" 0 st.Fiber.s_suspends;
  check Alcotest.int "4095 children and the root" 4096 st.Fiber.s_spawned

(* A pinned child goes through its worker's inbox, never the joiner's
   deque, so join cannot take it back: it runs where it was pinned. *)
let pinned_child_not_inlined () =
  Fiber.run ~cores:2 (fun () ->
      for _ = 1 to 20 do
        List.iter
          (fun i ->
            let id =
              Fiber.join
                (Fiber.spawn_on i (fun () ->
                     match Pool.current () with
                     | Some ctx -> Pool.ctx_id ctx
                     | None -> -1))
            in
            check Alcotest.int "ran on its pinned worker" i id)
          [ 0; 1 ]
      done)

(* An inlined child that awaits an unresolved promise parks by itself;
   its joiner then parks on the child's completion.  Both finish once
   the promise is fulfilled. *)
let inlined_child_parks_alone () =
  Fiber.run ~cores:1 (fun () ->
      let p = Promise.create () in
      let joiner =
        Fiber.spawn (fun () ->
            let child = Fiber.spawn (fun () -> Fiber.await p + 1) in
            Fiber.join child + 1)
      in
      (* the yield lets the worker run [joiner], which inlines [child] *)
      Fiber.yield ();
      check Alcotest.int "child and joiner parked separately" 2
        (Fiber.stats ()).Fiber.s_suspends;
      check Alcotest.bool "joiner still pending" false
        (Promise.is_resolved (Fiber.promise_of joiner));
      Promise.fulfil p 40;
      check Alcotest.int "both finished after the fulfil" 42
        (Fiber.join joiner))

let inlined_child_exception () =
  Fiber.run ~cores:1 (fun () ->
      let h = Fiber.spawn (fun () : int -> raise Not_found) in
      (match Fiber.join h with
      | _ -> Alcotest.fail "join returned despite the raise"
      | exception Not_found -> ());
      let st = Fiber.stats () in
      check Alcotest.int "failure counted" 1 st.Fiber.s_failed;
      check Alcotest.int "run inline, no park" 0 st.Fiber.s_suspends)

(* Finished children empty their registry slots and the owner prunes
   them, so a long-lived fiber's registry stays small however many
   children it has had. *)
let registry_bounded () =
  let max_slots =
    Fiber.run ~cores:2 (fun () ->
        Fiber.join
          (Fiber.spawn (fun () ->
               let m = ref 0 in
               for i = 1 to 200_000 do
                 if Fiber.join (Fiber.spawn (fun () -> i)) <> i then
                   Alcotest.fail "child returned the wrong value";
                 m := max !m (Fiber.children_slots ())
               done;
               !m)))
  in
  check Alcotest.bool
    (Printf.sprintf "registry stays within its pruning limit (max %d)"
       max_slots)
    true (max_slots <= 8)

(* ---------------- cancellation ---------------- *)

let cancel_parked_fiber () =
  Fiber.run ~cores:2 (fun () ->
      let p : int Promise.t = Promise.create () in
      let victim = Fiber.spawn (fun () -> Fiber.await p) in
      Fiber.yield ();
      (* victim is parked on a promise nobody will fulfil *)
      Fiber.cancel victim;
      (match Fiber.join victim with
      | _ -> Alcotest.fail "cancelled fiber returned a value"
      | exception Fiber.Cancelled -> ());
      check Alcotest.bool "marked cancelled" true (Fiber.is_cancelled victim);
      let st = Fiber.stats () in
      check Alcotest.bool "cancellation counted" true (st.Fiber.s_cancelled >= 1))

let cancel_idempotent () =
  Fiber.run ~cores:1 (fun () ->
      let p : int Promise.t = Promise.create () in
      let victim = Fiber.spawn (fun () -> Fiber.await p) in
      Fiber.yield ();
      Fiber.cancel victim;
      Fiber.cancel victim;
      match Fiber.join victim with
      | _ -> Alcotest.fail "cancelled fiber returned"
      | exception Fiber.Cancelled -> ())

let cancel_propagates_to_children () =
  Fiber.run ~cores:2 (fun () ->
      let gate : int Promise.t = Promise.create () in
      let grandchild_done = Atomic.make `Pending in
      let parent =
        Fiber.spawn (fun () ->
            let g =
              Fiber.spawn (fun () ->
                  match Fiber.await gate with
                  | _ -> Atomic.set grandchild_done `Value
                  | exception Fiber.Cancelled ->
                      Atomic.set grandchild_done `Cancelled;
                      raise Fiber.Cancelled)
            in
            Fiber.join g)
      in
      (* let the tree park *)
      Fiber.yield ();
      Fiber.sleep 0.002;
      Fiber.cancel parent;
      (match Fiber.join parent with
      | _ -> Alcotest.fail "cancelled parent returned"
      | exception Fiber.Cancelled -> ());
      (* drive until the grandchild observed its fate *)
      let rec settle n =
        if Atomic.get grandchild_done = `Pending && n > 0 then begin
          Fiber.sleep 0.001;
          settle (n - 1)
        end
      in
      settle 200;
      check Alcotest.bool "grandchild cancelled, not completed" true
        (Atomic.get grandchild_done = `Cancelled))

let cleanup_runs_on_cancel () =
  (* Fun.protect finalisers run when a parked fiber is discontinued *)
  Fiber.run ~cores:1 (fun () ->
      let p : int Promise.t = Promise.create () in
      let cleaned = ref false in
      let victim =
        Fiber.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> cleaned := true)
              (fun () -> Fiber.await p))
      in
      Fiber.yield ();
      Fiber.cancel victim;
      (match Fiber.join victim with
      | _ -> ()
      | exception Fiber.Cancelled -> ());
      check Alcotest.bool "finally ran" true !cleaned)

(* ---------------- scale ---------------- *)

let smoke_100k_fibers () =
  (* 100_000 concurrent fibers on 2 domains, all parked on one gate
     promise at the high-water point, then released.  Asserts
     completion, the high-water mark, and bounded bookkeeping (live
     back to 1 = just the root). *)
  let n = 100_000 in
  let total, st =
    Fiber.run ~cores:2 (fun () ->
        let gate = Promise.create () in
        let hs =
          List.init n (fun i ->
              Fiber.spawn (fun () ->
                  let v = Fiber.await gate in
                  v + (i land 1)))
        in
        Promise.fulfil gate 1;
        let total = List.fold_left (fun acc h -> acc + Fiber.join h) 0 hs in
        (total, Fiber.stats ()))
  in
  check Alcotest.int "all fibers completed with values" (n + (n / 2)) total;
  check Alcotest.bool "high-water saw the full population" true
    (st.Fiber.s_high_water >= n);
  check Alcotest.bool "bookkeeping drained (root + at most one straggler)" true
    (st.Fiber.s_live <= 2);
  check Alcotest.bool "completions counted" true (st.Fiber.s_completed >= n);
  check Alcotest.int "spawn accounting" (n + 1) st.Fiber.s_spawned

let suite =
  ( "fiber",
    [
      test_case "run returns the root value" `Quick run_returns;
      test_case "spawn/join fan-out" `Quick spawn_join_tree;
      test_case "root exception escapes run" `Quick root_exception_propagates;
      test_case "child exception surfaces at join" `Quick child_exception_at_join;
      test_case "run_in reuses a pool, ledger balances" `Quick run_in_reuses_pool;
      test_case "await after fulfil is immediate" `Quick await_after_fulfil;
      test_case "parked fiber frees its domain (cores=1)" `Quick
        await_before_fulfil_one_domain;
      test_case "broken promise raises at await" `Quick broken_promise_raises;
      test_case "multi-waiter: all woken with the value" `Quick multi_waiter;
      test_case "fulfil races: exactly one winner x50" `Quick
        fulfil_exactly_once_racing_domains;
      test_case "waiter callback exactly once x50" `Quick
        waiter_callback_exactly_once;
      QCheck_alcotest.to_alcotest promise_qcheck_model;
      test_case "yield interleaves fibers on one domain" `Quick
        yield_interleaves_on_one_domain;
      test_case "cross-domain resume x20" `Quick cross_domain_resume_x20;
      test_case "spawn_on pins across yields" `Quick spawn_on_pins;
      test_case "sleep parks without holding a domain" `Quick sleep_elapses;
      test_case "Future.force inside a fiber" `Quick force_future_inside_fiber;
      test_case "cancel wakes a parked fiber into Cancelled" `Quick
        cancel_parked_fiber;
      test_case "cancel is idempotent" `Quick cancel_idempotent;
      test_case "cancel propagates to grandchildren" `Quick
        cancel_propagates_to_children;
      test_case "Fun.protect cleanup runs on cancel" `Quick cleanup_runs_on_cancel;
      test_case "100k fibers on 2 domains with high-water mark" `Slow
        smoke_100k_fibers;
      test_case "depth-12 tree on one domain never parks" `Quick
        inline_tree_never_parks;
      test_case "pinned child is never inlined" `Quick pinned_child_not_inlined;
      test_case "inlined child parks alone, joiner then parks" `Quick
        inlined_child_parks_alone;
      test_case "inlined child's exception re-raised at join" `Quick
        inlined_child_exception;
      test_case "200k spawn+join cycles keep the registry bounded" `Quick
        registry_bounded;
    ] )
