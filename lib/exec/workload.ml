(** The spark-pool interpreter of the shared workload definitions.

    A definition ([Repro_workloads.Rounds]) is a plan of barrier rounds
    over pure-data tasks; here every task of a round becomes a spark
    (through {!Strategies}, so outside a {!Pool} the rounds run
    sequentially) and the round's results come back in task order.
    The plan is drawn for [procs = available_cores ()] slots.  A
    pinned round keeps the farm's rule: task [i] belongs to slot
    [i mod procs], whose tasks run one at a time, in order, against
    the slot's own resident state — so that state is only ever touched
    by the one spark evaluating its slot. *)

module Rounds = Repro_workloads.Rounds
module S = Strategies

module type S = sig
  val name : string
  val size_doc : string
  val default_size : int
  val quick_size : int
  val run : size:int -> unit -> int
  val reference : size:int -> int
end

module Of_rounds (R : Rounds.S) : S = struct
  let name = R.name
  let size_doc = R.size_doc
  let default_size = R.default_size
  let quick_size = R.quick_size
  let reference = R.reference

  let run ~size () =
    let inputs = R.inputs ~size in
    let procs = S.available_cores () in
    let slots = Array.init procs (fun _ -> R.resident ()) in
    let round tasks pinned =
      if pinned then begin
        let n = Array.length tasks in
        let per_slot =
          S.par_map
            (fun s ->
              Array.init
                ((n - s + procs - 1) / procs)
                (fun j -> R.execute inputs slots.(s) tasks.(s + (j * procs))))
            (List.init procs Fun.id)
          |> Array.of_list
        in
        Array.init n (fun i -> per_slot.(i mod procs).(i / procs))
      end
      else
        Array.of_list
          (S.par_map
             (fun t -> R.execute inputs (R.resident ()) t)
             (Array.to_list tasks))
    in
    let rec go st tasks pinned =
      match R.step st (round tasks pinned) with
      | `Done v -> v
      | `Round (st, tasks, pinned) -> go st tasks pinned
    in
    let st, tasks, pinned = R.start ~size ~procs in
    go st tasks pinned
end

let of_rounds (module R : Rounds.S) = (module Of_rounds (R) : S)

module Sumeuler = Of_rounds (Rounds.Sumeuler)
module Parfib = Of_rounds (Rounds.Parfib)
module Matmul = Of_rounds (Rounds.Matmul)
module Mandelbrot_w = Of_rounds (Rounds.Mandelbrot_w)
module Apsp_w = Of_rounds (Rounds.Apsp_w)

let all = List.map of_rounds Rounds.all
let names = Rounds.names
let find name = Option.map of_rounds (Rounds.find name)
