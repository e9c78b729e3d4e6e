(** The five real-execution workloads, each defined once as a plan of
    barrier rounds over pure-data tasks, for the spark pool and the
    process farm to interpret (see the interface).  Kernels perform
    their floating-point reductions in exactly the reference order, so
    checksums compare bit-for-bit. *)

module type S = sig
  val name : string
  val size_doc : string
  val default_size : int
  val quick_size : int

  type inputs

  val inputs : size:int -> inputs

  type resident

  val resident : unit -> resident

  type task
  type result
  type state

  val start : size:int -> procs:int -> state * task array * bool

  val step :
    state -> result array -> [ `Done of int | `Round of state * task array * bool ]

  val execute : inputs -> resident -> task -> result
  val result_blob : ((result -> float array) * (float array -> result)) option
  val reference : size:int -> int
end

let float_bits f = Int64.to_int (Int64.bits_of_float f)

(* Contiguous block [c] of [0..size-1] split into [chunks] pieces. *)
let block ~size ~chunks c =
  let lo = c * size / chunks and hi = ((c + 1) * size / chunks) - 1 in
  (lo, hi)

let blocks ~size ~chunks = Array.init chunks (block ~size ~chunks)

(* ---------------- sumEuler ---------------- *)

module Sumeuler : S = struct
  let name = "sumeuler"
  let size_doc = "sum of Euler's totient over [1..size]"
  let default_size = 300_000
  let quick_size = 2_000

  type inputs = unit
  type resident = unit

  let inputs ~size:_ = ()
  let resident () = ()

  type task = int * int  (** inclusive [k] range *)

  type result = int
  type state = unit

  (* phi's cost grows with k, but 512 blocks leave plenty for demand
     scheduling (or stealing) to balance *)
  let start ~size ~procs:_ =
    let chunks = max 1 (min 512 (size / 50)) in
    ((), Array.map (fun (lo, hi) -> (lo + 1, hi + 1)) (blocks ~size ~chunks), false)

  let step () results = `Done (Array.fold_left ( + ) 0 results)

  let execute () () (lo, hi) =
    let s = ref 0 in
    for k = lo to hi do
      s := !s + Euler.phi_fast k
    done;
    !s

  (* one int per task: the marshalled form is already minimal *)
  let result_blob = None
  let reference ~size = Euler.sum_euler_ref size
end

(* ---------------- parfib ---------------- *)

module Parfib : S = struct
  let name = "parfib"
  let size_doc = "nfib size (naive call count), call tree unfolded to a threshold"
  let default_size = 34
  let quick_size = 24

  type inputs = unit
  type resident = unit

  let inputs ~size:_ = ()
  let resident () = ()

  type task = int  (** one sub-tree: naive nfib of this argument *)

  type result = int

  type state = int  (** internal-node contribution of the unfolded prefix *)

  (* GpH's classic shape sparks the left branch of every call above
     [size - 10]; unfolding the same tree yields the same few hundred
     leaves as independent tasks.  Every internal node contributes
     [+1]. *)
  let start ~size ~procs:_ =
    let t = max 2 (size - 10) in
    let rec split n (internal, leaves) =
      if n < t || n < 2 then (internal, n :: leaves)
      else split (n - 2) (split (n - 1) (internal + 1, leaves))
    in
    let internal, leaves = split size (0, []) in
    (internal, Array.of_list (List.rev leaves), false)

  let step internal results = `Done (internal + Array.fold_left ( + ) 0 results)

  (* Real work: the naive exponential recursion, not the simulator's
     memoised nfib.  Half the calls are leaves; splitting the inner
     node out gives a leaf a short path with no stack check, whose
     speed barely depends on where the linker places it (the
     one-function form's time varied by ~40% with its address). *)
  let rec nfib n = if n < 2 then 1 else node n
  and[@inline never] node n = nfib (n - 1) + nfib (n - 2) + 1
  let execute () () n = nfib n
  let result_blob = None
  (* nfib n = 2 fib (n+1) - 1, by iteration *)
  let reference ~size =
    let rec fib a b k = if k = 0 then a else fib b (a + b) (k - 1) in
    (2 * fib 0 1 (size + 1)) - 1
end

(* ---------------- matmul ---------------- *)

module Matmul : S = struct
  let name = "matmul"
  let size_doc = "size x size dense float multiply"
  let default_size = 384
  let quick_size = 64

  (* Deterministic factors: PEs regenerate them instead of receiving
     them, as Eden replicates closed inputs; only product rows travel. *)
  type inputs = Matrix.mat * Matrix.mat
  type resident = unit

  let inputs ~size = (Matrix.random ~seed:11 size, Matrix.random ~seed:23 size)
  let resident () = ()

  type task = int * int  (** inclusive row range of the product *)

  type result = float array array  (** the computed rows *)

  type state = unit

  (* Fresh rows of the product, each element an ascending-k dot
     product: the accumulation order of [Matrix.mul_ref]. *)
  let rows_kernel (a, b) lo hi =
    let n = Array.length a in
    Array.init (hi - lo + 1) (fun r ->
        let ai = a.(lo + r) and ci = Array.make n 0.0 in
        for j = 0 to n - 1 do
          let s = ref 0.0 in
          for k = 0 to n - 1 do
            s := !s +. (ai.(k) *. b.(k).(j))
          done;
          ci.(j) <- !s
        done;
        ci)

  let start ~size ~procs =
    let chunks = max 1 (min size (4 * procs)) in
    ((), blocks ~size ~chunks, false)

  (* the row blocks, in order, are the product *)
  let step () results =
    `Done (float_bits (Matrix.checksum (Array.concat (Array.to_list results))))

  let execute ab () (lo, hi) = rows_kernel ab lo hi

  (* The bulk payload of the suite: a block of product rows, flattened
     behind a [rows; cols] shape prefix (both far below 2^53, so exact
     as floats; the row data is raw IEEE bits either way). *)
  let result_blob =
    let enc (rows : result) =
      let nr = Array.length rows in
      let nc = if nr = 0 then 0 else Array.length rows.(0) in
      let out = Array.make (2 + (nr * nc)) 0.0 in
      out.(0) <- float_of_int nr;
      out.(1) <- float_of_int nc;
      Array.iteri (fun i row -> Array.blit row 0 out (2 + (i * nc)) nc) rows;
      out
    in
    let dec (flat : float array) : result =
      let nr = int_of_float flat.(0) and nc = int_of_float flat.(1) in
      Array.init nr (fun i -> Array.sub flat (2 + (i * nc)) nc)
    in
    Some (enc, dec)

  let reference ~size =
    float_bits (Matrix.checksum (rows_kernel (inputs ~size) 0 (size - 1)))
end

(* ---------------- mandelbrot ---------------- *)

module Mandelbrot_w : S = struct
  let name = "mandelbrot"
  let size_doc = "size x size rendering of the default view"
  let default_size = 500
  let quick_size = 64

  type inputs = int  (** the image side *)

  type resident = unit

  let inputs ~size = size
  let resident () = ()

  type task = int * int  (** inclusive row range *)

  type result = int array  (** per-row iteration totals for the range *)

  type state = unit

  (* row costs are irregular: many fine blocks balance dynamically *)
  let start ~size ~procs:_ =
    let chunks = max 1 (min 128 size) in
    ((), blocks ~size ~chunks, false)

  let step () results =
    `Done (Array.fold_left (Array.fold_left ( + )) 0 results)

  let execute size () (lo, hi) =
    Array.init (hi - lo + 1) (fun i ->
        snd
          (Mandelbrot.compute_row ~view:Mandelbrot.default_view ~width:size
             ~height:size (lo + i)))

  (* Row totals are iteration counts (far below 2^53): exact as
     floats, so the rendered rows ride the zero-copy plane. *)
  let result_blob =
    let enc (rows : result) = Array.map float_of_int rows in
    let dec (flat : float array) : result = Array.map int_of_float flat in
    Some (enc, dec)

  let reference ~size = Mandelbrot.reference ~width:size ~height:size ()
end

(* ---------------- apsp ---------------- *)

module Apsp_w : S = struct
  let name = "apsp"
  let size_doc = "all-pairs shortest paths on a size-node digraph"
  let default_size = 256
  let quick_size = 48

  (* One barrier round per pivot, Eden-ring style: each slot owns a
     block of rows for the whole run (pinned tasks, resident block);
     only the pivot row circulates, via the coordinator.  The slot
     owning row [k+1] returns it (updated through pivot [k]) as the
     next round's pivot; the last round hands the blocks back. *)

  type inputs = float array array  (** the graph *)

  (* A slot's block: its first row, the pivot it expects next, its
     rows. *)
  type block = { first : int; mutable next_k : int; rows : float array array }
  type resident = block option ref

  let inputs ~size = Apsp.graph size
  let resident () = ref None

  type task = {
    k : int;
    lo : int;  (** the slot's block, rows [lo..hi] *)
    hi : int;
    pivot : float array;  (** row [k] at entry of step [k] *)
    last : bool;
  }

  type result = {
    next_pivot : float array option;  (** row [k+1] if this block owns it *)
    final : float array array option;  (** the block, on the last round *)
  }

  type state = { n : int; k : int; pivot : float array; blocks : (int * int) array }

  (* Min-plus update of each row against the pivot, skipping
     unreachable rows: [Apsp.floyd_warshall]'s arithmetic. *)
  let update_block rows pivot k =
    let n = Array.length pivot in
    for i = 0 to Array.length rows - 1 do
      let di = rows.(i) in
      let dik = di.(k) in
      if dik < infinity then
        for j = 0 to n - 1 do
          let via = dik +. pivot.(j) in
          if via < di.(j) then di.(j) <- via
        done
    done

  let execute g slot { k; lo; hi; pivot; last } =
    if hi < lo then { next_pivot = None; final = (if last then Some [||] else None) }
    else begin
      let b =
        match !slot with
        | Some b when b.first = lo && b.next_k = k -> b
        | None when k = 0 ->
            let rows = Array.init (hi - lo + 1) (fun i -> Array.copy g.(lo + i)) in
            let b = { first = lo; next_k = 0; rows } in
            slot := Some b;
            b
        | _ ->
            failwith
              (Printf.sprintf
                 "apsp: pivot %d reached block %d out of order (rounds are pinned)"
                 k lo)
      in
      update_block b.rows pivot k;
      b.next_k <- k + 1;
      let next_pivot =
        if (not last) && k + 1 >= lo && k + 1 <= hi then
          Some (Array.copy b.rows.(k + 1 - lo))
        else None
      in
      (* the last round hands the block over: the slot keeps nothing *)
      if last then slot := None;
      { next_pivot; final = (if last then Some b.rows else None) }
    end

  (* Option-heavy record; rounds ship one pivot row each — not worth a
     flat encoding. *)
  let result_blob = None

  let round_tasks st =
    Array.map
      (fun (lo, hi) -> { k = st.k; lo; hi; pivot = st.pivot; last = st.k = st.n - 1 })
      st.blocks

  let start ~size ~procs =
    if size = 0 then
      (* degenerate: one empty pinned round, [step] finishes at once *)
      ({ n = 0; k = 0; pivot = [||]; blocks = [||] }, [||], true)
    else
      let st =
        {
          n = size;
          k = 0;
          pivot = Array.copy (Apsp.graph size).(0);
          blocks = blocks ~size ~chunks:procs;
        }
      in
      (st, round_tasks st, true)

  let step st results =
    if st.n = 0 then `Done (float_bits (Apsp.checksum [||]))
    else if st.k = st.n - 1 then
      let final r =
        match r.final with
        | Some rows -> rows
        | None -> failwith "apsp: last round returned no block"
      in
      let d = Array.concat (Array.to_list (Array.map final results)) in
      `Done (float_bits (Apsp.checksum d))
    else
      match List.filter_map (fun r -> r.next_pivot) (Array.to_list results) with
      | [ pivot ] ->
          let st = { st with k = st.k + 1; pivot } in
          `Round (st, round_tasks st, true)
      | [] -> failwith "apsp: no block returned the next pivot"
      | _ -> failwith "apsp: two blocks claim the next pivot"

  let reference ~size =
    float_bits (Apsp.checksum (Apsp.floyd_warshall (Apsp.graph size)))
end

(* ---------------- registry ---------------- *)

let all : (module S) list =
  [
    (module Sumeuler);
    (module Parfib);
    (module Matmul);
    (module Mandelbrot_w);
    (module Apsp_w);
  ]

let names = List.map (fun (module W : S) -> W.name) all
let find name = List.find_opt (fun (module W : S) -> W.name = name) all
