(** The spark-pool interpreter of the shared workload definitions
    ([Repro_workloads.Rounds]): each round's tasks run as sparks on
    {e real} domains over one shared heap, with results reduced to the
    definition's deterministic [int] checksum. *)

module type S = sig
  val name : string

  (** What [size] means for this workload. *)
  val size_doc : string

  val default_size : int

  (** Small size for tests and CI smoke runs. *)
  val quick_size : int

  (** Parallel run; degrades to sequential outside a {!Pool}. *)
  val run : size:int -> unit -> int

  (** Sequential reference checksum (never sparks). *)
  val reference : size:int -> int
end

(** Interpret one definition. *)
val of_rounds : (module Repro_workloads.Rounds.S) -> (module S)

module Sumeuler : S
module Parfib : S
module Matmul : S
module Mandelbrot_w : S
module Apsp_w : S

(** Every workload, in the registry's order. *)
val all : (module S) list

val names : string list
val find : string -> (module S) option
