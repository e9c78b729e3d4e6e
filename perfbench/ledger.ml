(* The core-time ledger of one workload.  Two workers spend
   [2 * run2] core-milliseconds on a solve; the ledger splits that into
   the sequential work, the tax each runtime layer adds on one worker,
   and the loss from going to two workers:

     2 * run2 = seq + tax_1 + ... + tax_k + scaling_loss + residual

   Each traced round solves the same n once per rung of a ladder: the
   plain-loop baseline, then one rung per layer (e.g. the parallel
   program outside any pool, then on a 1-domain pool), then two workers.
   A tax is the median over rounds of the paired difference between a
   rung and the one below it; the scaling loss is the median of
   [2 * run2 - top rung].  Medians of differences do not add up exactly,
   so the residual is what the terms fail to explain: it grows with
   round-to-round noise and stays near zero when the ladder holds. *)

type round = {
  rungs : float array;
      (** [rungs.(0)] is the sequential baseline, the last rung is the
          1-worker solve *)
  run2 : float;  (** the 2-worker solve *)
}

type t = {
  seq_ms : float;
  taxes : (string * float) list;
  scaling_loss_ms : float;
  run2_ms : float;  (** median traced 2-worker solve *)
  residual_ms : float;
}

let of_rounds ~tax_names rounds =
  let k = List.length tax_names in
  if rounds = [] then invalid_arg "Ledger.of_rounds: no rounds";
  List.iter
    (fun r ->
      if Array.length r.rungs <> k + 1 then
        invalid_arg "Ledger.of_rounds: one rung per tax plus the baseline")
    rounds;
  let med f = Stats.median (Array.of_list (List.map f rounds)) in
  let seq_ms = med (fun r -> r.rungs.(0)) in
  let taxes =
    List.mapi
      (fun i name -> (name, med (fun r -> r.rungs.(i + 1) -. r.rungs.(i))))
      tax_names
  in
  let scaling_loss_ms = med (fun r -> (2. *. r.run2) -. r.rungs.(k)) in
  let run2_ms = med (fun r -> r.run2) in
  let explained =
    List.fold_left (fun a (_, v) -> a +. v) (seq_ms +. scaling_loss_ms) taxes
  in
  { seq_ms; taxes; scaling_loss_ms; run2_ms; residual_ms = (2. *. run2_ms) -. explained }

(* Every term including the residual: sums to [2 * run2_ms]. *)
let terms t =
  (("seq", t.seq_ms) :: t.taxes)
  @ [ ("scaling_loss", t.scaling_loss_ms); ("residual", t.residual_ms) ]
