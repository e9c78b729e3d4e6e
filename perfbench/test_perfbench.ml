(* Tests of the benchmark's own accounting: failure counting in the
   closed loop, the ledger identity, tail percentiles and absent
   ratios. *)

open Perfbench_core

let feq = Alcotest.float 1e-9

(* A clock that advances 1 ms per reading, so the loop's length is a
   count of clock reads rather than of real time. *)
let fake_clock () =
  let t = ref 0 in
  fun () ->
    t := !t + 1_000_000;
    !t

let loop ?(seconds = 0.2) ?(min_ok = 1) ?(recover = ignore) solve =
  Closed_loop.run ~now:(fake_clock ()) ~seconds ~min_ok ~max_seconds:10.
    ~seq_every:3 ~expected:42 ~solve ~seq:(fun () -> 42) ~recover ()

let counter () =
  let n = ref 0 in
  fun () ->
    incr n;
    !n

let test_wrong_checksum () =
  let attempt = counter () in
  let r = loop (fun () -> if attempt () = 3 then 41 else 42) in
  Alcotest.(check bool) "kept going after the failure" true (r.attempted > 3);
  Alcotest.(check int) "one failure" 1 r.failed;
  Alcotest.(check int) "verified samples" (r.attempted - 1) (Array.length r.solve_ms);
  Alcotest.(check (list string)) "reason" [ "checksum 41, expected 42" ] r.errors;
  let expect = float_of_int (r.attempted - 1) /. float_of_int r.attempted in
  Alcotest.(check (option feq)) "ok_frac" (Some expect) (Closed_loop.ok_frac r)

let test_raise () =
  let attempt = counter () and recovered = ref 0 in
  let r =
    loop
      ~recover:(fun () -> incr recovered)
      (fun () -> if attempt () mod 4 = 2 then failwith "PE died" else 42)
  in
  let raised = (r.attempted + 2) / 4 in
  Alcotest.(check bool) "kept going" true (r.attempted > 6);
  Alcotest.(check int) "every raise failed" raised r.failed;
  Alcotest.(check int) "runtime rebuilt after each raise" raised !recovered;
  Alcotest.(check int) "verified samples" (r.attempted - raised) (Array.length r.solve_ms)

(* The same accounting when a real runtime raises: a fiber fails inside
   [Fiber.run_in], the pool is rebuilt, and the loop goes on. *)
let test_fiber_raise () =
  let module Pool = Repro_exec.Pool in
  let module Fiber = Repro_fiber.Fiber in
  let pool = ref (Pool.create ~cores:2 ()) and rebuilt = ref 0 in
  let attempt = counter () in
  let r =
    loop
      ~recover:(fun () ->
        Pool.shutdown !pool;
        pool := Pool.create ~cores:2 ();
        incr rebuilt)
      (fun () ->
        let a = attempt () in
        Fiber.run_in !pool (fun () ->
            let h = Fiber.spawn (fun () -> if a = 2 then failwith "fiber died" else 21) in
            21 + Fiber.join h))
  in
  Pool.shutdown !pool;
  Alcotest.(check int) "one failure" 1 r.failed;
  Alcotest.(check int) "pool rebuilt once" 1 !rebuilt;
  Alcotest.(check (list string)) "reason" [ "Failure(\"fiber died\")" ] r.errors;
  Alcotest.(check int) "verified samples" (r.attempted - 1) (Array.length r.solve_ms)

let test_min_ok_extends () =
  let attempt = counter () in
  (* the deadline passes long before 30 verified solves *)
  let r = loop ~seconds:0.001 ~min_ok:30 (fun () -> if attempt () mod 2 = 0 then 0 else 42) in
  Alcotest.(check int) "verified" 30 (Array.length r.solve_ms);
  Alcotest.(check int) "failed" (r.attempted - 30) r.failed

let test_baseline_interleaved () =
  let r = loop (fun () -> 42) in
  Alcotest.(check int) "one baseline per three solves"
    ((r.attempted + 2) / 3)
    (Array.length r.seq_ms)

(* Core time is taken per solve, and only verified solves keep it. *)
let test_core_time_per_solve () =
  let attempt = counter () and core = ref 0. in
  let r =
    Closed_loop.run
      ~cpu:(fun () -> !core)
      ~now:(fake_clock ()) ~seconds:0.2 ~min_ok:1 ~max_seconds:10. ~seq_every:3
      ~expected:42
      ~solve:(fun () ->
        core := !core +. 5.;
        if attempt () = 2 then 41 else 42)
      ~seq:(fun () ->
        core := !core +. 100.;
        42)
      ~recover:ignore ()
  in
  Alcotest.(check int) "one sample per verified solve" (Array.length r.solve_ms)
    (Array.length r.solve_cpu_ms);
  Array.iter (Alcotest.check feq "the solve's own core time" 5.) r.solve_cpu_ms

let test_wrong_baseline_raises () =
  match
    Closed_loop.run ~now:(fake_clock ()) ~seconds:0.1 ~min_ok:1 ~max_seconds:1.
      ~seq_every:1 ~expected:42 ~solve:(fun () -> 42) ~seq:(fun () -> 7)
      ~recover:ignore ()
  with
  | _ -> Alcotest.fail "a wrong baseline must not be timed"
  | exception Failure _ -> ()

let test_no_attempt_ratio () =
  let r =
    Closed_loop.run ~now:(fake_clock ()) ~seconds:0. ~min_ok:0 ~max_seconds:0.
      ~seq_every:1 ~expected:42 ~solve:(fun () -> 42) ~seq:(fun () -> 42)
      ~recover:ignore ()
  in
  Alcotest.(check int) "nothing attempted" 0 r.attempted;
  Alcotest.(check (option feq)) "ok_frac absent" None (Closed_loop.ok_frac r)

(* ---- ledger ---- *)

let round rungs run2 = { Ledger.rungs = Array.of_list rungs; run2 }
let sum_terms l = List.fold_left (fun a (_, v) -> a +. v) 0. (Ledger.terms l)

let test_ledger_exact () =
  (* seq 100, decomposition +30, pool +10, two workers 80 each *)
  let rounds = List.init 5 (fun _ -> round [ 100.; 130.; 140. ] 80.) in
  let l = Ledger.of_rounds ~tax_names:[ "strategies.tax_ms"; "pool.tax_ms" ] rounds in
  Alcotest.check feq "seq" 100. l.seq_ms;
  Alcotest.(check (list (pair string feq)))
    "taxes"
    [ ("strategies.tax_ms", 30.); ("pool.tax_ms", 10.) ]
    l.taxes;
  Alcotest.check feq "scaling loss = 2*80 - 140" 20. l.scaling_loss_ms;
  Alcotest.check feq "no residual" 0. l.residual_ms;
  Alcotest.check feq "terms sum to 2 x run2" 160. (sum_terms l)

let test_ledger_noisy () =
  let rounds =
    [
      round [ 100.; 150. ] 90.;
      round [ 110.; 150. ] 95.;
      round [ 105.; 170. ] 100.;
      round [ 120.; 155. ] 85.;
    ]
  in
  let l = Ledger.of_rounds ~tax_names:[ "fiber.tax_ms" ] rounds in
  (* paired differences 50 40 65 35 -> nearest-rank median 40 *)
  Alcotest.(check (list (pair string feq))) "tax" [ ("fiber.tax_ms", 40.) ] l.taxes;
  Alcotest.check feq "run2 median" 90. l.run2_ms;
  Alcotest.(check bool) "medians leave a residual" true (l.residual_ms <> 0.);
  Alcotest.check feq "terms sum to 2 x run2" (2. *. l.run2_ms) (sum_terms l)

let test_ledger_rejects_bad_rounds () =
  Alcotest.check_raises "rung count"
    (Invalid_argument "Ledger.of_rounds: one rung per tax plus the baseline")
    (fun () -> ignore (Ledger.of_rounds ~tax_names:[ "a"; "b" ] [ round [ 1.; 2. ] 1. ]))

(* ---- stats ---- *)

let test_median () =
  Alcotest.check feq "even count takes the lower middle" 2. (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check feq "odd" 3. (Stats.median [| 5.; 1.; 3.; 2.; 4. |])

let test_tail_percentile () =
  let xs n = Array.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option feq)) "99 samples: 9 beyond p90" None (Stats.tail_percentile (xs 99) 90.);
  (match Stats.tail_percentile (xs 100) 90. with
  | Some p -> Alcotest.(check int) "10 beyond" 10 (Stats.count_beyond (xs 100) p)
  | None -> Alcotest.fail "100 samples support p90");
  let ties = Array.append (xs 85) (Array.make 20 1000.) in
  Alcotest.(check (option feq)) "ties at the top leave none beyond" None
    (Stats.tail_percentile ties 90.);
  Alcotest.(check (option feq)) "empty" None (Stats.tail_percentile [||] 90.)

let test_ratio () =
  Alcotest.(check (option feq)) "zero base is absent" None (Stats.ratio 3. 0.);
  Alcotest.(check (option feq)) "zero over zero is absent" None (Stats.ratio 0. 0.);
  Alcotest.(check (option feq)) "nan is absent" None (Stats.ratio nan 2.);
  Alcotest.(check (option feq)) "plain" (Some 0.5) (Stats.ratio 1. 2.)

(* ---- spans ---- *)

let test_self_time () =
  let sp = Spans.create (fun () -> 0) in
  let root = Spans.record sp ~solve:1 "farm.run" 0 100 in
  ignore (Spans.record sp ~parent:root ~solve:1 "farm.spawn" 10 30);
  ignore (Spans.record sp ~parent:root ~solve:1 "farm.work" 20 50);
  ignore (Spans.record sp ~parent:root ~solve:1 "late" 90 120);
  let s = List.find (fun s -> s.Spans.id = root) (Spans.spans sp) in
  Alcotest.(check int) "self = 100 - covered (40 + 10 clipped)" 50 (Spans.self_ns sp s)

let test_with_span () =
  let sp = Spans.create (fake_clock ()) in
  let v, outer =
    Spans.with_span sp ~solve:3 "outer" (fun id ->
        fst (Spans.with_span sp ~parent:id ~solve:3 "inner" (fun _ -> 7)))
  in
  Alcotest.(check int) "value" 7 v;
  match Spans.spans sp with
  | [ o; i ] ->
      Alcotest.(check int) "parent" o.id i.parent;
      Alcotest.(check int) "outer returned" outer.id o.id;
      Alcotest.(check bool) "child inside parent" true
        (o.start_ns < i.start_ns && i.end_ns < o.end_ns)
  | _ -> Alcotest.fail "two spans"

let () =
  Alcotest.run "perfbench"
    [
      ( "closed_loop",
        [
          Alcotest.test_case "injected wrong checksum" `Quick test_wrong_checksum;
          Alcotest.test_case "injected raise" `Quick test_raise;
          Alcotest.test_case "fiber raise in a real pool" `Quick test_fiber_raise;
          Alcotest.test_case "min_ok extends the loop" `Quick test_min_ok_extends;
          Alcotest.test_case "baseline interleaved" `Quick test_baseline_interleaved;
          Alcotest.test_case "core time per solve" `Quick test_core_time_per_solve;
          Alcotest.test_case "wrong baseline raises" `Quick test_wrong_baseline_raises;
          Alcotest.test_case "ok_frac absent before any attempt" `Quick test_no_attempt_ratio;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "exact identity" `Quick test_ledger_exact;
          Alcotest.test_case "noisy rounds keep the identity" `Quick test_ledger_noisy;
          Alcotest.test_case "rejects malformed rounds" `Quick test_ledger_rejects_bad_rounds;
        ] );
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "p90 needs 10 beyond" `Quick test_tail_percentile;
          Alcotest.test_case "zero-base ratio absent" `Quick test_ratio;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "nesting" `Quick test_with_span;
        ] );
    ]
