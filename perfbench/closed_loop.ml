(* Closed-loop timing: one client issues the next solve only when the
   previous one has returned.  Samples of the sequential baseline are
   interleaved with the solves, so both see the same machine state.

   A solve counts as attempted whether it returns or raises.  It fails
   when its checksum differs from [expected] or when it raises; after a
   raise [recover] rebuilds the runtime and the loop goes on. *)

type t = {
  solve_ms : float array;  (** durations of verified solves, in order *)
  solve_cpu_ms : float array;  (** core time of the same solves, by [cpu] *)
  seq_ms : float array;  (** baseline durations, in order *)
  attempted : int;
  failed : int;
  errors : string list;  (** the first few failure reasons, oldest first *)
  elapsed_s : float;
}

let max_errors = 5

(* Runs until [seconds] have passed and [min_ok] solves were verified,
   but never beyond [max_seconds].  [now] is a monotonic clock in ns.
   The baseline runs before the first solve and after every
   [seq_every]-th one; a wrong baseline is a bug in the benchmark, not a
   solve failure, and raises.  [cpu] is a core-time clock in ms, read
   around each solve. *)
let run ?(cpu = fun () -> 0.) ~now ~seconds ~min_ok ~max_seconds ~seq_every
    ~expected ~solve ~seq ~recover () =
  let t0 = now () in
  let elapsed () = float_of_int (now () - t0) *. 1e-9 in
  let timed f =
    let s = now () in
    let v = f () in
    (v, float_of_int (now () - s) *. 1e-6)
  in
  let oks = ref [] and cpus = ref [] and seqs = ref [] and errors = ref [] in
  let attempted = ref 0 and failed = ref 0 and verified = ref 0 in
  let fail msg =
    incr failed;
    if List.length !errors < max_errors then errors := msg :: !errors
  in
  let baseline () =
    let v, ms = timed seq in
    if v <> expected then
      failwith (Printf.sprintf "baseline gave %d, expected %d" v expected);
    seqs := ms :: !seqs
  in
  while
    let e = elapsed () in
    e < max_seconds && (e < seconds || !verified < min_ok)
  do
    if !attempted mod seq_every = 0 then baseline ();
    incr attempted;
    let c0 = cpu () in
    match timed solve with
    | v, ms when v = expected ->
        incr verified;
        cpus := (cpu () -. c0) :: !cpus;
        oks := ms :: !oks
    | v, _ -> fail (Printf.sprintf "checksum %d, expected %d" v expected)
    | exception e ->
        fail (Printexc.to_string e);
        recover ()
  done;
  {
    solve_ms = Array.of_list (List.rev !oks);
    solve_cpu_ms = Array.of_list (List.rev !cpus);
    seq_ms = Array.of_list (List.rev !seqs);
    attempted = !attempted;
    failed = !failed;
    errors = List.rev !errors;
    elapsed_s = elapsed ();
  }

(* Share of attempted solves that were verified; absent before any
   attempt. *)
let ok_frac t =
  Stats.ratio (float_of_int (t.attempted - t.failed)) (float_of_int t.attempted)
