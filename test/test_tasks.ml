(* Tests for the task library. *)

open Wfc_topology
open Wfc_model
open Wfc_tasks

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let well name task = checkb (name ^ " well-formed") true (Task.well_formed task = Ok ())

let task_unit_tests =
  [
    Alcotest.test_case "all instances are well-formed" `Quick (fun () ->
        well "consensus 2" (Instances.binary_consensus ~procs:2);
        well "consensus 3" (Instances.binary_consensus ~procs:3);
        well "set-consensus 3 2" (Instances.set_consensus ~procs:3 ~k:2);
        well "set-consensus 3 3" (Instances.set_consensus ~procs:3 ~k:3);
        well "renaming 2 3" (Instances.adaptive_renaming ~procs:2 ~names:3);
        well "approx 2 3" (Instances.approximate_agreement ~procs:2 ~grid:3);
        well "id 3" (Instances.id_task ~procs:3));
    Alcotest.test_case "rejects tasks with no legal output" `Quick (fun () ->
        (try
           ignore
             (Task.of_relation ~name:"impossible" ~procs:2
                ~inputs:(fun _ -> [ "x" ])
                ~outputs:(fun _ -> [ "y" ])
                ~legal:(fun ~participants:_ ~input:_ ~output:_ -> false));
           Alcotest.fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
    Alcotest.test_case "consensus complexes have the right shape" `Quick (fun () ->
        let t = Instances.binary_consensus ~procs:2 in
        let icx = Chromatic.complex t.Task.input in
        let ocx = Chromatic.complex t.Task.output in
        checki "4 input vertices" 4 (Complex.num_vertices icx);
        checki "4 input facets" 4 (Complex.num_facets icx);
        (* output: the two monochromatic edges *)
        checki "2 output facets" 2 (Complex.num_facets ocx);
        checkb "output disconnected" false (Complex.is_connected ocx));
    Alcotest.test_case "consensus delta enforces validity" `Quick (fun () ->
        let t = Instances.binary_consensus ~procs:2 in
        let v00 = Option.get (Task.input_vertex t ~proc:0 ~value:"0") in
        let v11 = Option.get (Task.input_vertex t ~proc:1 ~value:"1") in
        let mixed = Simplex.of_list [ v00; v11 ] in
        (* with inputs 0 and 1 both all-0 and all-1 outputs are allowed *)
        checki "two allowed tuples" 2 (List.length (t.Task.delta mixed));
        let v10 = Option.get (Task.input_vertex t ~proc:1 ~value:"0") in
        let same = Simplex.of_list [ v00; v10 ] in
        checki "only all-0 allowed" 1 (List.length (t.Task.delta same)));
    Alcotest.test_case "allows respects faces" `Quick (fun () ->
        let t = Instances.binary_consensus ~procs:2 in
        let v00 = Option.get (Task.input_vertex t ~proc:0 ~value:"0") in
        let v11 = Option.get (Task.input_vertex t ~proc:1 ~value:"1") in
        let si = Simplex.of_list [ v00; v11 ] in
        let w0 = Option.get (Task.output_vertex t ~proc:0 ~value:"1") in
        (* P0 deciding 1 alone is a face of the all-1 tuple *)
        checkb "partial output allowed" true (Task.allows t si (Simplex.of_list [ w0 ])));
    Alcotest.test_case "input/output vertex lookup" `Quick (fun () ->
        let t = Instances.set_consensus ~procs:3 ~k:2 in
        checkb "input exists" true (Task.input_vertex t ~proc:1 ~value:"1" <> None);
        checkb "no wrong input" true (Task.input_vertex t ~proc:1 ~value:"2" = None);
        checkb "output exists" true (Task.output_vertex t ~proc:1 ~value:"2" <> None);
        let w = Option.get (Task.output_vertex t ~proc:2 ~value:"0") in
        checki "color" 2 (Task.proc_of_output t w));
    Alcotest.test_case "approximate agreement output complex is a path of cliques" `Quick
      (fun () ->
        let t = Instances.approximate_agreement ~procs:2 ~grid:3 in
        let ocx = Chromatic.complex t.Task.output in
        checkb "connected" true (Complex.is_connected ocx);
        checki "8 vertices (2 procs x 4 grid points)" 8 (Complex.num_vertices ocx));
  ]

let product_unit_tests =
  [
    Alcotest.test_case "product is well-formed" `Quick (fun () ->
        let p =
          Task.product
            (Instances.adaptive_renaming ~procs:2 ~names:3)
            (Instances.approximate_agreement ~procs:2 ~grid:3)
        in
        checkb "well-formed" true (Task.well_formed p = Ok ()));
    Alcotest.test_case "product sizes multiply" `Quick (fun () ->
        let a = Instances.id_task ~procs:2 and b = Instances.binary_consensus ~procs:2 in
        let p = Task.product a b in
        (* id has 1 input per proc, consensus 2: product has 2 *)
        checki "input vertices" 4 (Complex.num_vertices (Chromatic.complex p.Task.input)));
    Alcotest.test_case "rejects mismatched process counts" `Quick (fun () ->
        (try
           ignore (Task.product (Instances.id_task ~procs:2) (Instances.id_task ~procs:3));
           Alcotest.fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
  ]

(* ------------------------------------------------------------------ *)
(* Content-addressed digests                                            *)
(* ------------------------------------------------------------------ *)

(* Binary consensus rebuilt from scratch with every enumeration order
   scrambled by [seed]: same combinatorial task, different construction
   order, different name. Its digest must not move. *)
let scrambled_consensus seed =
  let rng = Random.State.make [| seed |] in
  let shuffle l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  Task.of_relation
    ~name:(Printf.sprintf "shuffled-consensus-%d" seed)
    ~procs:2
    ~inputs:(fun _ -> shuffle [ "0"; "1" ])
    ~outputs:(fun _ -> shuffle [ "0"; "1" ])
    ~legal:(fun ~participants ~input ~output ->
      match List.map output participants with
      | [] -> false
      | d :: rest ->
        List.for_all (( = ) d) rest
        && List.exists (fun p -> input p = d) participants)

let digest_unit_tests =
  [
    Alcotest.test_case "digest is stable across reconstruction" `Quick (fun () ->
        Alcotest.check Alcotest.string "same digest"
          (Task.digest (Instances.binary_consensus ~procs:2))
          (Task.digest (Instances.binary_consensus ~procs:2)));
    Alcotest.test_case "digest ignores the task name" `Quick (fun () ->
        Alcotest.check Alcotest.string "renamed"
          (Task.digest (scrambled_consensus 0))
          (Task.digest (scrambled_consensus 0)));
    Alcotest.test_case "different tasks get different digests" `Quick (fun () ->
        let digests =
          List.map Task.digest
            [
              Instances.binary_consensus ~procs:2;
              Instances.binary_consensus ~procs:3;
              Instances.set_consensus ~procs:3 ~k:2;
              Instances.set_consensus ~procs:3 ~k:3;
              Instances.adaptive_renaming ~procs:2 ~names:3;
              Instances.approximate_agreement ~procs:2 ~grid:3;
              Instances.id_task ~procs:3;
            ]
        in
        checki "all distinct" (List.length digests)
          (List.length (List.sort_uniq compare digests)));
    Alcotest.test_case "by_name round-trips to the constructors" `Quick (fun () ->
        Alcotest.check Alcotest.string "set-consensus"
          (Task.digest (Instances.set_consensus ~procs:3 ~k:2))
          (Task.digest (Instances.by_name ~name:"set-consensus" ~procs:3 ~param:2));
        (try
           ignore (Instances.by_name ~name:"no-such-task" ~procs:2 ~param:0);
           Alcotest.fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
  ]

(* Digests are store keys: a changed byte would silently orphan every
   verdict already on disk. These literals were computed before the
   digest moved into the task value and [canonical_json] stopped
   rendering inside its sort comparator. *)
let golden_digest_tests =
  [
    Alcotest.test_case "golden digests are unchanged" `Quick (fun () ->
        List.iter
          (fun (name, procs, param, expected) ->
            Alcotest.check Alcotest.string
              (Printf.sprintf "%s %d/%d" name procs param)
              expected
              (Task.digest (Instances.by_name ~name ~procs ~param)))
          [
            ("consensus", 2, 2, "dc402b4314b41cf79fda08a3dab9afb2");
            ("set-consensus", 3, 2, "db93b284511b0d38ac0de45aa3de382d");
            ("approx", 3, 3, "3a0803e4fb6f78f0b1323bc3b26451ad");
            ("renaming", 3, 6, "f2de5492c5549a265dfcb11b80514208");
            ("loop-disk", 3, 0, "f137526ca77d9b4d0639ec97ebc6123c");
          ]);
    Alcotest.test_case "the stored digest is the canonical bytes' digest" `Quick (fun () ->
        List.iter
          (fun t ->
            Alcotest.check Alcotest.string t.Task.name
              (Digest.to_hex
                 (Digest.string (Wfc_obs.Json.to_string (Task.canonical_json t))))
              (Task.digest t))
          [
            Instances.set_consensus ~procs:3 ~k:2;
            Instances.loop_agreement_on_circle ();
            scrambled_consensus 7;
          ]);
  ]

let digest_prop_tests =
  [
    qtest ~count:50
      "digest is invariant under enumeration order and naming"
      QCheck2.Gen.(int_range 1 10_000)
      (fun seed ->
        Task.digest (scrambled_consensus seed) = Task.digest (scrambled_consensus 0));
    qtest ~count:30 "canonical JSON bytes are order-insensitive too"
      QCheck2.Gen.(int_range 1 5_000)
      (fun seed ->
        Wfc_obs.Json.to_string (Task.canonical_json (scrambled_consensus seed))
        = Wfc_obs.Json.to_string (Task.canonical_json (scrambled_consensus 0)));
  ]

(* ------------------------------------------------------------------ *)
(* Simplex agreement tasks                                              *)
(* ------------------------------------------------------------------ *)

let sa_unit_tests =
  [
    Alcotest.test_case "CSASS over SDS(s^1) is well-formed" `Quick (fun () ->
        let target = Sds.subdiv (Sds.standard ~dim:1 ~levels:1) in
        well "csass" (Simplex_agreement.chromatic target);
        well "ncsass" (Simplex_agreement.non_chromatic target));
    Alcotest.test_case "CSASS output vertices carry target colors" `Quick (fun () ->
        let target = Sds.subdiv (Sds.standard ~dim:1 ~levels:1) in
        let t = Simplex_agreement.chromatic target in
        List.iter
          (fun w ->
            let tv = Simplex_agreement.output_vertex_in_target t w in
            checki "colors line up"
              (Chromatic.color target.Subdiv.cx tv)
              (Task.proc_of_output t w))
          (Complex.vertices (Chromatic.complex t.Task.output)));
    Alcotest.test_case "solo participants must stay on their corner" `Quick (fun () ->
        let target = Sds.subdiv (Sds.standard ~dim:1 ~levels:1) in
        let t = Simplex_agreement.chromatic target in
        let v0 = Option.get (Task.input_vertex t ~proc:0 ~value:"corner0") in
        let allowed = t.Task.delta (Simplex.of_list [ v0 ]) in
        (* carrier of the output must be inside {corner 0}: only the corner
           vertex itself qualifies *)
        checki "single choice" 1 (List.length allowed));
    Alcotest.test_case "rejects non-standard bases" `Quick (fun () ->
        let base =
          Chromatic.make (Complex.of_facets [ [ 0; 1 ]; [ 1; 2 ] ]) ~color:(fun v -> v mod 2)
        in
        (try
           ignore (Simplex_agreement.chromatic (Subdiv.identity base));
           Alcotest.fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
  ]

(* ------------------------------------------------------------------ *)
(* Runnable protocols                                                   *)
(* ------------------------------------------------------------------ *)

let protocol_unit_tests =
  [
    Alcotest.test_case "own-id set consensus" `Quick (fun () ->
        let o = Runtime.run (Protocols.own_id_set_consensus ~procs:3) (Runtime.round_robin ()) in
        Alcotest.check
          (Alcotest.array (Alcotest.option Alcotest.int))
          "ids" [| Some 0; Some 1; Some 2 |] o.Runtime.results);
    Alcotest.test_case "IS renaming under sequential schedule" `Quick (fun () ->
        let o = Runtime.run (Protocols.is_renaming ~procs:3) (Runtime.round_robin ()) in
        let outputs =
          Array.to_list o.Runtime.results |> List.mapi (fun p r -> (p, Option.get r))
        in
        checkb "valid" true
          (Protocols.check_renaming ~participants:[ 0; 1; 2 ] outputs = Ok ()));
    Alcotest.test_case "renaming checker rejects" `Quick (fun () ->
        checkb "duplicate" true
          (Protocols.check_renaming ~participants:[ 0; 1 ] [ (0, 1); (1, 1) ] <> Ok ());
        checkb "range" true
          (Protocols.check_renaming ~participants:[ 0; 1 ] [ (0, 1); (1, 4) ] <> Ok ()));
    Alcotest.test_case "approximate agreement halves the diameter" `Quick (fun () ->
        let inputs = [| Rat.zero; Rat.one |] in
        let o =
          Runtime.run
            (Protocols.approximate_agreement ~procs:2 ~rounds:3 ~inputs)
            (Runtime.round_robin ())
        in
        let outs = Array.to_list o.Runtime.results |> List.filter_map (fun x -> x) in
        checkb "within 1/8" true
          (Protocols.check_approximate ~eps:(Rat.make 1 8) ~inputs:(Array.to_list inputs) outs
          = Ok ()));
    Alcotest.test_case "approximate checker rejects" `Quick (fun () ->
        checkb "diameter" true
          (Protocols.check_approximate ~eps:(Rat.make 1 4) ~inputs:[ Rat.zero; Rat.one ]
             [ Rat.zero; Rat.one ]
          <> Ok ());
        checkb "range" true
          (Protocols.check_approximate ~eps:Rat.one ~inputs:[ Rat.half ]
             [ Rat.of_int 2 ]
          <> Ok ()));
  ]

let protocol_prop_tests =
  [
    qtest "IS renaming is correct under every random adversary"
      QCheck2.Gen.(pair (int_range 0 2000) (int_range 2 6))
      (fun (seed, procs) ->
        let o = Runtime.run (Protocols.is_renaming ~procs) (Runtime.random ~seed ()) in
        let outputs =
          Array.to_list o.Runtime.results |> List.mapi (fun p r -> (p, Option.get r))
        in
        Protocols.check_renaming ~participants:(List.init procs (fun i -> i)) outputs = Ok ());
    qtest "IS renaming stays correct when a process crashes"
      QCheck2.Gen.(pair (int_range 0 500) (int_range 0 3))
      (fun (seed, victim) ->
        let procs = 4 in
        let o =
          Runtime.run (Protocols.is_renaming ~procs)
            (Runtime.random_with_crashes ~seed ~crash:[ victim ] ())
        in
        let outputs =
          Array.to_list o.Runtime.results
          |> List.mapi (fun p r -> (p, r))
          |> List.filter_map (fun (p, r) -> Option.map (fun v -> (p, v)) r)
        in
        Protocols.check_renaming ~participants:(List.init procs (fun i -> i)) outputs = Ok ());
    qtest "approximate agreement converges under every adversary"
      QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 5))
      (fun (seed, rounds) ->
        let inputs = [| Rat.zero; Rat.one; Rat.half |] in
        let o =
          Runtime.run
            (Protocols.approximate_agreement ~procs:3 ~rounds ~inputs)
            (Runtime.random ~seed ())
        in
        let outs = Array.to_list o.Runtime.results |> List.filter_map (fun x -> x) in
        let eps = Rat.make 1 (1 lsl rounds) in
        Protocols.check_approximate ~eps ~inputs:(Array.to_list inputs) outs = Ok ());
  ]

let () =
  Alcotest.run "wfc_tasks"
    [
      ("task", task_unit_tests @ product_unit_tests);
      ("digest", digest_unit_tests @ golden_digest_tests @ digest_prop_tests);
      ("simplex-agreement", sa_unit_tests);
      ("protocols", protocol_unit_tests @ protocol_prop_tests);
    ]
