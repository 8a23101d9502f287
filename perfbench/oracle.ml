(* The expected-verdict table for Q (perfbench/oracle.json): verdict and
   level of every question, computed by an inline [Solvability.solve] with
   the engine's default options — the same question the daemon is asked,
   decided without the daemon, its store or its wire format. *)

open Wfc_core

type entry = { verdict : string; level : int }

let path = "perfbench/oracle.json"

let load () =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  let json = match Wfc_obs.Json.parse text with Ok j -> j | Error e -> fail e in
  let entries =
    match Wfc_obs.Json.member "questions" json with
    | Some (Wfc_obs.Json.Arr l) -> l
    | _ -> fail "no questions array"
  in
  let table = Array.make Catalogue.size None in
  List.iter
    (fun e ->
      let field k = Wfc_obs.Json.member k e in
      match (field "id", field "name", field "verdict", field "level") with
      | ( Some (Wfc_obs.Json.Int id),
          Some (Wfc_obs.Json.String name),
          Some (Wfc_obs.Json.String verdict),
          Some (Wfc_obs.Json.Int level) )
        when id >= 0 && id < Catalogue.size && name = Catalogue.name Catalogue.all.(id) ->
        table.(id) <- Some { verdict; level }
      | _ -> fail "malformed entry, or one that does not match the catalogue")
    entries;
  Array.mapi
    (fun id e ->
      match e with
      | Some e -> e
      | None -> fail (Printf.sprintf "no entry for question %d" id))
    table

(* Writes the table; refuses a catalogue with an exhausting question or two
   questions sharing a store key (the second would be a hit on a cold run). *)
let generate () =
  let keys = Hashtbl.create 64 in
  let entries =
    Array.to_list
      (Array.map
         (fun (x : Catalogue.question) ->
           let task = Wfc_tasks.Instances.by_name ~name:x.task ~procs:x.procs ~param:x.param in
           let model =
             match Wfc_tasks.Model.of_string x.model with Ok m -> m | Error e -> failwith e
           in
           let digest = Wfc_tasks.Task.digest task in
           let key = Printf.sprintf "%s:%s:L%d" digest x.model x.level in
           if Hashtbl.mem keys key then
             failwith (Printf.sprintf "%s shares its store key with another question" (Catalogue.name x));
           Hashtbl.add keys key ();
           let t0 = Unix.gettimeofday () in
           let v = Solvability.solve ~opts:(Solvability.options ~model ()) ~max_level:x.level task in
           let dt = Unix.gettimeofday () -. t0 in
           let o = Solvability.outcome_of_verdict v in
           if o.Solvability.o_verdict = "exhausted" then
             failwith (Printf.sprintf "%s exhausts the node budget" (Catalogue.name x));
           Printf.eprintf "%-40s %-11s L%d %9.1f ms %8d nodes\n%!" (Catalogue.name x)
             o.Solvability.o_verdict o.Solvability.o_level (dt *. 1000.) o.Solvability.o_nodes;
           let open Wfc_obs.Json in
           Obj
             [
               ("id", Int x.id);
               ("name", String (Catalogue.name x));
               ("digest", String digest);
               ("verdict", String o.Solvability.o_verdict);
               ("level", Int o.Solvability.o_level);
             ])
         Catalogue.all)
  in
  Wfc_obs.Report.write_file path
    (Wfc_obs.Json.Obj
       [
         ("schema", Wfc_obs.Json.String "wfc.perfbench.oracle.v1");
         ("questions", Wfc_obs.Json.Arr entries);
       ])
