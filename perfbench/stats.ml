(* Order statistics for the benchmark's samples, over the repository's
   nearest-rank percentile. *)

let percentile xs p = Repro_util.Stats.percentile (Array.to_list xs) p
let median xs = percentile xs 50.

(* Samples strictly above [p]. *)
let count_beyond xs p =
  Array.fold_left (fun c x -> if x > p then c + 1 else c) 0 xs

(* A tail percentile is reported only when at least [min_beyond] samples
   lie beyond it; otherwise it would be set by a handful of outliers. *)
let tail_percentile ?(min_beyond = 10) xs p =
  if Array.length xs = 0 then None
  else
    let v = percentile xs p in
    if count_beyond xs v >= min_beyond then Some v else None

(* A ratio whose base is zero (or not finite) is absent, never NaN or
   infinite. *)
let ratio num base =
  if base = 0. || not (Float.is_finite base && Float.is_finite num) then None
  else Some (num /. base)
