(** Tests for the real-hardware executor ([lib/exec]): pool/future
    semantics, strategy combinators, and — the acceptance gate —
    deterministic results for every wired workload at 1, 2 and 4
    domains. *)

module Pool = Repro_exec.Pool
module Future = Repro_exec.Future
module S = Repro_exec.Strategies
module Workload = Repro_exec.Workload
module Harness = Repro_exec.Harness

let test_case = Alcotest.test_case
let check = Alcotest.check

(* ---------------- pool + future basics ---------------- *)

let par_joins () =
  Pool.with_pool ~cores:2 (fun () ->
      let a, b = S.par (fun () -> 6 * 7) (fun () -> "ok") in
      check Alcotest.int "left" 42 a;
      check Alcotest.string "right" "ok" b)

let outside_pool_is_sequential () =
  (* no pool: sparks fizzle, force evaluates in place *)
  let trace = ref [] in
  let fut = Future.spark (fun () -> trace := `Spark :: !trace; 1) in
  check Alcotest.bool "not yet run" false (Future.is_done fut);
  let v = Future.force fut in
  check Alcotest.int "value" 1 v;
  check Alcotest.int "ran exactly once" 1 (List.length !trace);
  check Alcotest.int "force again is cached" 1 (Future.force fut)

let future_evaluated_once () =
  (* force the same future from many sparks racing across domains *)
  Pool.with_pool ~cores:4 (fun () ->
      let hits = Atomic.make 0 in
      let shared = Future.spark (fun () -> Atomic.fetch_and_add hits 1) in
      let forcers = List.init 16 (fun _ () -> Future.force shared) in
      let vs = S.par_list forcers in
      List.iter (fun v -> check Alcotest.int "same claim" 0 v) vs;
      check Alcotest.int "evaluated exactly once" 1 (Atomic.get hits))

let exceptions_propagate () =
  Pool.with_pool ~cores:2 (fun () ->
      let fut = Future.spark (fun () -> failwith "boom") in
      match Future.force fut with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg -> check Alcotest.string "message" "boom" msg)

let par_list_order () =
  Pool.with_pool ~cores:4 (fun () ->
      let fs = List.init 100 (fun i () -> i * i) in
      let expect = List.init 100 (fun i -> i * i) in
      check Alcotest.(list int) "ordered" expect (S.par_list fs))

let par_chunked_covers () =
  Pool.with_pool ~cores:3 (fun () ->
      let xs = List.init 1000 (fun i -> i) in
      let sums =
        S.par_chunked ~split:`Round_robin ~chunks:7
          (List.fold_left ( + ) 0)
          xs
      in
      check Alcotest.int "total" (999 * 1000 / 2) (List.fold_left ( + ) 0 sums))

let par_range_covers () =
  Pool.with_pool ~cores:4 (fun () ->
      let total =
        S.par_range ~chunks:5 1 100
          (fun lo hi ->
            let s = ref 0 in
            for i = lo to hi do s := !s + i done;
            !s)
          ~combine:( + ) ~init:0
      in
      check Alcotest.int "1..100" 5050 total;
      check Alcotest.int "empty range" 0
        (S.par_range ~chunks:4 5 4 (fun _ _ -> 1) ~combine:( + ) ~init:0))

let nested_par () =
  Pool.with_pool ~cores:4 (fun () ->
      let rec tree depth =
        if depth = 0 then 1
        else
          let a, b =
            S.par (fun () -> tree (depth - 1)) (fun () -> tree (depth - 1))
          in
          a + b
      in
      check Alcotest.int "2^8 leaves" 256 (tree 8))

let pool_reusable_across_runs () =
  let p = Pool.create ~cores:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      for i = 1 to 5 do
        let v =
          Pool.run p (fun () ->
              List.fold_left ( + ) 0 (S.par_map (fun x -> x * i) [ 1; 2; 3 ]))
        in
        check Alcotest.int "run result" (6 * i) v
      done)

(* ---------------- strategy edge cases ---------------- *)

let par_chunked_edges () =
  Pool.with_pool ~cores:2 (fun () ->
      check
        Alcotest.(list (list int))
        "empty list -> no pieces" []
        (S.par_chunked ~chunks:4 (fun p -> p) []);
      let pieces = S.par_chunked ~chunks:10 (fun p -> p) [ 1; 2; 3 ] in
      check Alcotest.bool "chunks > length: no empty pieces" true
        (List.for_all (fun p -> p <> []) pieces);
      check
        Alcotest.(list int)
        "chunks > length: coverage in order" [ 1; 2; 3 ] (List.concat pieces);
      let xs = List.init 37 Fun.id in
      let flat split =
        List.concat (S.par_chunked ~split ~chunks:5 (fun p -> p) xs)
      in
      check Alcotest.(list int) "contiguous covers in order" xs (flat `Contiguous);
      check
        Alcotest.(list int)
        "round-robin covers as a permutation" xs
        (List.sort compare (flat `Round_robin));
      let sum = List.fold_left ( + ) 0 in
      check Alcotest.int "same totals under either split"
        (sum (S.par_chunked ~split:`Contiguous ~chunks:5 sum xs))
        (sum (S.par_chunked ~split:`Round_robin ~chunks:5 sum xs)))

let exception_propagates_across_domains_repeated () =
  (* Repeat with worker noise so the failing body is sometimes run by a
     stealing domain and sometimes in place — both must surface the
     exception at force, and a second force re-raises the cached one. *)
  Pool.with_pool ~cores:4 (fun () ->
      for i = 1 to 20 do
        let noise = List.init 8 (fun j -> Future.spark (fun () -> j * i)) in
        let bad =
          Future.spark (fun () -> if i >= 0 then failwith "crash" else 0)
        in
        (match Future.force bad with
        | _ -> Alcotest.fail "expected Failure"
        | exception Failure msg -> check Alcotest.string "message" "crash" msg);
        (match Future.force bad with
        | _ -> Alcotest.fail "expected cached Failure"
        | exception Failure _ -> ());
        List.iteri
          (fun j f -> check Alcotest.int "noise result" (j * i) (Future.force f))
          noise
      done)

(* ---------------- scheduler observability counters ---------------- *)

let events_ledger_balances () =
  let p = Pool.create ~cores:3 () in
  let xs = List.init 50 Fun.id in
  let v =
    Pool.run p (fun () ->
        List.fold_left ( + ) 0 (S.par_map (fun x -> x * x) xs))
  in
  Pool.shutdown p;
  let e = Pool.events p in
  check Alcotest.int "result" (List.fold_left (fun a x -> a + (x * x)) 0 xs) v;
  check Alcotest.int "one spark per element" 50 e.Pool.sparks_created;
  check Alcotest.int "created = run + fizzled" e.Pool.sparks_created
    (e.Pool.sparks_run + e.Pool.sparks_fizzled);
  check Alcotest.bool "steals counted within attempts" true
    (e.Pool.steals <= e.Pool.steal_attempts)

let events_ledger_balances_after_many_runs () =
  let p = Pool.create ~cores:4 () in
  for _ = 1 to 5 do
    ignore
      (Pool.run p (fun () ->
           S.par_range ~chunks:8 1 200
             (fun lo hi -> hi - lo)
             ~combine:( + ) ~init:0))
  done;
  Pool.shutdown p;
  let e = Pool.events p in
  check Alcotest.int "ledger balances over reuse" e.Pool.sparks_created
    (e.Pool.sparks_run + e.Pool.sparks_fizzled);
  check Alcotest.int "5 runs x 8 ranges" 40 e.Pool.sparks_created

(* ---------------- workload determinism at 1/2/4 domains ---------------- *)

let workload_deterministic (module W : Workload.S) () =
  (* awkward sizes too: empty, a single element, fewer elements than
     domains *)
  List.iter
    (fun size ->
      let expect = W.reference ~size in
      check Alcotest.int
        (Printf.sprintf "%s size %d outside a pool = reference" W.name size)
        expect (W.run ~size ());
      List.iter
        (fun cores ->
          let got = Pool.with_pool ~cores (fun () -> W.run ~size ()) in
          check Alcotest.int
            (Printf.sprintf "%s size %d at %d domain(s) = reference" W.name size
               cores)
            expect got)
        [ 1; 2; 4 ])
    [ 0; 1; 3; W.quick_size ];
  (* four domains running it at once, 20 times each: state shared
     between concurrent runs shows up as a wrong checksum *)
  let size = W.quick_size in
  let expect = W.reference ~size in
  List.init 4 (fun _ ->
      Domain.spawn (fun () -> List.init 20 (fun _ -> W.run ~size ())))
  |> List.iter (fun d ->
         List.iter
           (check Alcotest.int
              (Printf.sprintf "%s size %d, 4 concurrent domains" W.name size)
              expect)
           (Domain.join d))

let matmul_kernel_matches_mul_ref () =
  (* the exec row kernel must agree bit-for-bit with Matrix.mul_ref *)
  let module M = Repro_workloads.Matrix in
  let n = 24 in
  let a = M.random ~seed:11 n and b = M.random ~seed:23 n in
  let via_ref = Int64.to_int (Int64.bits_of_float (M.checksum (M.mul_ref a b))) in
  let via_exec = Workload.Matmul.reference ~size:n in
  check Alcotest.int "bitwise equal checksum" via_ref via_exec

let apsp_matches_floyd_warshall () =
  let module A = Repro_workloads.Apsp in
  let size = 32 in
  let expect =
    Int64.to_int (Int64.bits_of_float (A.checksum (A.floyd_warshall (A.graph size))))
  in
  let got = Pool.with_pool ~cores:3 (fun () -> Workload.Apsp_w.run ~size ()) in
  check Alcotest.int "parallel apsp = floyd_warshall" expect got

(* ---------------- harness ---------------- *)

let harness_sweep_shape () =
  let m = Workload.find "sumeuler" |> Option.get in
  let ms = Harness.sweep ~repeats:2 ~cores_list:[ 1; 2 ] ~size:500 m in
  check Alcotest.int "two rows" 2 (List.length ms);
  let base = List.hd ms in
  check (Alcotest.float 1e-9) "baseline speedup" 1.0 base.Harness.speedup;
  List.iter
    (fun (r : Harness.measurement) ->
      check Alcotest.int "same checksum" base.Harness.result r.Harness.result;
      check Alcotest.bool "positive time" true (r.Harness.mean_ns > 0.0);
      (* GC deltas are taken between two quick_stats, so they can
         never go backwards *)
      check Alcotest.bool "minor GCs non-negative" true
        (r.Harness.minor_collections >= 0);
      check Alcotest.bool "major GCs non-negative" true
        (r.Harness.major_collections >= 0);
      check Alcotest.bool "minor words non-negative" true
        (r.Harness.minor_words >= 0.0))
    ms

let core_counts () =
  check Alcotest.(list int) "8" [ 1; 2; 4; 8 ] (Harness.core_counts_up_to 8);
  check Alcotest.(list int) "6" [ 1; 2; 4; 6 ] (Harness.core_counts_up_to 6);
  check Alcotest.(list int) "1" [ 1 ] (Harness.core_counts_up_to 1)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let json_document_valid () =
  let m = Workload.find "parfib" |> Option.get in
  let ms = Harness.sweep ~repeats:1 ~cores_list:[ 1; 2 ] ~size:18 m in
  let s = Repro_util.Json_out.to_string (Harness.json_document ms) in
  check Alcotest.bool "mentions schema" true
    (contains ~sub:"repro/bench-exec/v1" s);
  check Alcotest.bool "has speedup field" true (contains ~sub:"\"speedup\"" s);
  check Alcotest.bool "one row per core count" true
    (contains ~sub:"\"cores\": 2" s);
  check Alcotest.bool "carries GC counters" true
    (contains ~sub:"\"gc_minor_collections\"" s)

let suite =
  let workload_cases =
    List.map
      (fun (module W : Workload.S) ->
        test_case
          (Printf.sprintf "workload %s deterministic at 1/2/4 domains" W.name)
          `Quick
          (workload_deterministic (module W)))
      Workload.all
  in
  ( "exec",
    [
      test_case "par joins" `Quick par_joins;
      test_case "sparks fizzle outside a pool" `Quick outside_pool_is_sequential;
      test_case "shared future evaluated once" `Quick future_evaluated_once;
      test_case "exceptions propagate through force" `Quick exceptions_propagate;
      test_case "par_list keeps order" `Quick par_list_order;
      test_case "par_chunked covers every element" `Quick par_chunked_covers;
      test_case "par_range covers and handles empty" `Quick par_range_covers;
      test_case "nested par" `Quick nested_par;
      test_case "pool reusable across runs" `Quick pool_reusable_across_runs;
      test_case "par_chunked edge cases" `Quick par_chunked_edges;
      test_case "exceptions propagate across domains x20" `Quick
        exception_propagates_across_domains_repeated;
      test_case "spark ledger: created = run + fizzled" `Quick
        events_ledger_balances;
      test_case "spark ledger balances across pool reuse" `Quick
        events_ledger_balances_after_many_runs;
      test_case "matmul kernel = mul_ref bitwise" `Quick
        matmul_kernel_matches_mul_ref;
      test_case "apsp = floyd_warshall bitwise" `Quick apsp_matches_floyd_warshall;
      test_case "harness sweep shape" `Quick harness_sweep_shape;
      test_case "core count ladder" `Quick core_counts;
      test_case "BENCH_exec json renders" `Quick json_document_valid;
    ]
    @ workload_cases )
