(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array: the smallest sample with at
   least [p] percent of the samples at or below it. *)
let rank p n = max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))

let percentile_sorted p a =
  let n = Array.length a in
  if n = 0 then nan else a.(rank p n)

let percentile p xs = percentile_sorted p (sorted xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let share num den = if den = 0 then 0. else float_of_int num /. float_of_int den
