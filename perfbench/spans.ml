(* In-memory spans recorded around the calls into each layer: name,
   start, end, the span that caused it, and the solve it belongs to.
   Kept in memory and written out once the traced pass ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  solve : int;
  start_ns : int;
  end_ns : int;
}

type t = { clock : unit -> int; mutable next : int; mutable spans : span list }

let create clock = { clock; next = 0; spans = [] }

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

(* A span whose bounds are already known, e.g. rebuilt from durations a
   layer reports. *)
let record t ?(parent = -1) ~solve name start_ns end_ns =
  let id = fresh t in
  t.spans <- { id; name; parent; solve; start_ns; end_ns } :: t.spans;
  id

(* Times [f id] and returns its value with the closed span; [id] is this
   span's id, for children to name as their parent. *)
let with_span t ?(parent = -1) ~solve name f =
  let id = fresh t in
  let start_ns = t.clock () in
  let close () =
    let s = { id; name; parent; solve; start_ns; end_ns = t.clock () } in
    t.spans <- s :: t.spans;
    s
  in
  match f id with
  | v -> (v, close ())
  | exception e ->
      ignore (close ());
      raise e

let spans t = List.sort (fun a b -> compare a.id b.id) t.spans
let duration_ns s = s.end_ns - s.start_ns

(* Duration minus the part of the span's interval its children cover. *)
let self_ns t s =
  let children =
    List.filter (fun c -> c.parent = s.id) t.spans
    |> List.map (fun c -> (max c.start_ns s.start_ns, min c.end_ns s.end_ns))
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, min_int) children
  in
  duration_ns s - covered

let to_json t =
  let module J = Repro_util.Json_out in
  J.List
    (List.map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("name", J.Str s.name);
             ("parent", if s.parent < 0 then J.Null else J.Int s.parent);
             ("solve", J.Int s.solve);
             ("start_ns", J.Int s.start_ns);
             ("end_ns", J.Int s.end_ns);
             ("self_ns", J.Int (self_ns t s));
           ])
       (spans t))
