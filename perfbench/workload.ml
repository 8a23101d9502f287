(* The three workloads and what each primes before its measured phase. *)

type t = Warm_hits | Cold_solves | Mixed

let all = [ Warm_hits; Cold_solves; Mixed ]

let name = function Warm_hits -> "warm_hits" | Cold_solves -> "cold_solves" | Mixed -> "mixed"

let of_name s = List.find_opt (fun w -> name w = s) all

(* The run's seed and the workload pick the stream; the catalogue itself
   never depends on the seed. *)
let rng w seed =
  let tag = match w with Warm_hits -> 1 | Cold_solves -> 2 | Mixed -> 3 in
  Random.State.make [| seed; tag |]

(* Questions asked during set-up, in catalogue order. *)
let prime_ids = function
  | Warm_hits -> Array.to_list (Array.map (fun (x : Catalogue.question) -> x.id) Catalogue.all)
  | Cold_solves -> []
  | Mixed -> List.map (fun (x : Catalogue.question) -> x.id) (Catalogue.primed_questions ())
