(* Tier-1 tests for the Wfc_par domain-pool subsystem and the parallel
   engines built on it: channel/deque/pool semantics, the sharded simplex
   arena under concurrent interning, and the end-to-end guarantee that the
   parallel solvability search returns exactly the sequential verdict. *)

open Wfc_topology
open Wfc_core

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Chan                                                                 *)

let test_chan () =
  let c = Wfc_par.Chan.create () in
  Wfc_par.Chan.send c 1;
  Wfc_par.Chan.send c 2;
  checkb "fifo 1" true (Wfc_par.Chan.recv c = Some 1);
  checkb "fifo 2" true (Wfc_par.Chan.recv c = Some 2);
  Wfc_par.Chan.send c 3;
  Wfc_par.Chan.close c;
  checkb "drains after close" true (Wfc_par.Chan.recv c = Some 3);
  checkb "closed and drained" true (Wfc_par.Chan.recv c = None);
  checkb "is_closed" true (Wfc_par.Chan.is_closed c);
  Alcotest.check_raises "send after close" (Invalid_argument "Chan.send: closed channel")
    (fun () -> Wfc_par.Chan.send c 4);
  (* a receiver blocked before the value arrives gets it *)
  let c2 = Wfc_par.Chan.create () in
  let d = Domain.spawn (fun () -> Wfc_par.Chan.recv c2) in
  Wfc_par.Chan.send c2 42;
  checkb "blocked receiver woken" true (Domain.join d = Some 42)

let test_chan_send_shared () =
  (* one send_shared, n receivers: each recv claims the value once *)
  let c = Wfc_par.Chan.create () in
  Wfc_par.Chan.send_shared c 7 3;
  checkb "claim 1" true (Wfc_par.Chan.recv c = Some 7);
  checkb "claim 2" true (Wfc_par.Chan.recv c = Some 7);
  checkb "claim 3" true (Wfc_par.Chan.recv c = Some 7);
  (* the cell is consumed after its last claim: the next value is visible *)
  Wfc_par.Chan.send c 9;
  checkb "cell popped after last claim" true (Wfc_par.Chan.recv c = Some 9);
  (* shared and plain sends interleave in fifo order *)
  Wfc_par.Chan.send c 1;
  Wfc_par.Chan.send_shared c 2 2;
  Wfc_par.Chan.send c 3;
  checkb "fifo: plain before shared" true (Wfc_par.Chan.recv c = Some 1);
  checkb "fifo: shared claim 1" true (Wfc_par.Chan.recv c = Some 2);
  checkb "fifo: shared claim 2" true (Wfc_par.Chan.recv c = Some 2);
  checkb "fifo: plain after shared" true (Wfc_par.Chan.recv c = Some 3);
  Alcotest.check_raises "claims must be positive"
    (Invalid_argument "Chan.send_shared: n < 1") (fun () ->
      Wfc_par.Chan.send_shared c 0 0);
  Wfc_par.Chan.close c;
  Alcotest.check_raises "send_shared after close"
    (Invalid_argument "Chan.send_shared: closed channel") (fun () ->
      Wfc_par.Chan.send_shared c 5 2)

(* ------------------------------------------------------------------ *)
(* Deque                                                                *)

let test_deque () =
  let q = Wfc_par.Deque.create ~capacity:3 in
  checkb "push 1" true (Wfc_par.Deque.push_bottom q 1);
  checkb "push 2" true (Wfc_par.Deque.push_bottom q 2);
  checkb "push 3" true (Wfc_par.Deque.push_bottom q 3);
  checkb "full rejects" false (Wfc_par.Deque.push_bottom q 4);
  checki "length" 3 (Wfc_par.Deque.length q);
  checkb "steal is fifo" true (Wfc_par.Deque.steal q = Some 1);
  checkb "pop is lifo" true (Wfc_par.Deque.pop_bottom q = Some 3);
  checkb "pop last" true (Wfc_par.Deque.pop_bottom q = Some 2);
  checkb "empty pop" true (Wfc_par.Deque.pop_bottom q = None);
  checkb "empty steal" true (Wfc_par.Deque.steal q = None);
  (* freed capacity is reusable (ring wrap-around) *)
  checkb "reuse" true (Wfc_par.Deque.push_bottom q 5);
  checkb "reuse pop" true (Wfc_par.Deque.pop_bottom q = Some 5)

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)

let test_pool_run () =
  let p = Wfc_par.Pool.create ~size:4 in
  Fun.protect ~finally:(fun () -> Wfc_par.Pool.shutdown p) @@ fun () ->
  let n = 64 in
  let jobs = Array.init n (fun i () -> i * i) in
  let r = Wfc_par.Pool.run p jobs in
  checkb "results in input order" true (r = Array.init n (fun i -> i * i));
  (* every job runs exactly once even when jobs outnumber domains *)
  let hits = Array.make n 0 in
  let lock = Mutex.create () in
  let jobs2 =
    Array.init n (fun i () ->
        Mutex.lock lock;
        hits.(i) <- hits.(i) + 1;
        Mutex.unlock lock)
  in
  ignore (Wfc_par.Pool.run p jobs2);
  checkb "each job ran once" true (Array.for_all (fun h -> h = 1) hits);
  (* nested run degrades to sequential instead of deadlocking *)
  let nested =
    Wfc_par.Pool.run p
      (Array.init 4 (fun i () ->
           Array.fold_left ( + ) 0 (Wfc_par.Pool.run p (Array.init 8 (fun j () -> (10 * i) + j)))))
  in
  checkb "nested batches complete" true
    (nested = Array.init 4 (fun i -> Array.fold_left ( + ) 0 (Array.init 8 (fun j -> (10 * i) + j))))

let test_pool_exceptions () =
  let p = Wfc_par.Pool.create ~size:2 in
  Fun.protect ~finally:(fun () -> Wfc_par.Pool.shutdown p) @@ fun () ->
  let ran = Array.make 8 false in
  let jobs =
    Array.init 8 (fun i () ->
        ran.(i) <- true;
        if i = 3 || i = 5 then failwith (Printf.sprintf "job %d" i))
  in
  (match Wfc_par.Pool.run p jobs with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
    Alcotest.(check string) "lowest-indexed failure wins" "job 3" msg);
  checkb "batch still drained fully" true (Array.for_all Fun.id ran)

let test_run_jobs_inline () =
  (* domains = 1 never touches the pool: thunks run on the caller *)
  let self = Domain.self () in
  let r =
    Wfc_par.run_jobs ~domains:1 (Array.init 4 (fun i () -> (i, Domain.self () = self)))
  in
  checkb "inline on caller" true (r = Array.init 4 (fun i -> (i, true)))

(* ------------------------------------------------------------------ *)
(* Token / race                                                         *)

let test_token () =
  let t = Wfc_par.Token.create () in
  checkb "fresh token not cancelled" false (Wfc_par.Token.cancelled t);
  Wfc_par.Token.cancel t;
  checkb "cancelled after cancel" true (Wfc_par.Token.cancelled t);
  Wfc_par.Token.cancel t;
  checkb "cancel is idempotent" true (Wfc_par.Token.cancelled t)

let test_race () =
  checkb "empty race" true (Wfc_par.race ~domains:2 [||] = None);
  (* domains = 1 runs thunks in order on the caller: thunk 0 wins and its
     cancellation makes every later thunk withdraw *)
  let later_saw_cancel = ref false in
  let r =
    Wfc_par.race ~domains:1
      [|
        (fun _ -> Some "first");
        (fun tok ->
          later_saw_cancel := Wfc_par.Token.cancelled tok;
          None);
      |]
  in
  checkb "first thunk wins inline" true (r = Some (0, "first"));
  checkb "loser observed the winner's cancel" true !later_saw_cancel;
  (* a thunk that withdraws (None) does not win; the survivor does *)
  let r2 = Wfc_par.race ~domains:1 [| (fun _ -> None); (fun _ -> Some 7) |] in
  checkb "withdrawal passes the win along" true (r2 = Some (1, 7));
  checkb "all withdraw" true (Wfc_par.race ~domains:1 [| (fun _ -> None); (fun _ -> None) |] = None);
  (* across domains: a spinner only exits when the winner cancels the
     shared token, so termination IS the cancellation test *)
  let r3 =
    Wfc_par.race ~domains:2
      [|
        (fun tok ->
          while not (Wfc_par.Token.cancelled tok) do
            Domain.cpu_relax ()
          done;
          None);
        (fun _ -> Some 42);
      |]
  in
  checkb "cross-domain cancel terminates the spinner" true (r3 = Some (1, 42))

(* ------------------------------------------------------------------ *)
(* Sharded arena under concurrent interning                             *)

let test_arena_stress () =
  (* four domains intern the same fresh simplices concurrently: every
     domain must see the same interned id per vertex set (hash-consing
     survives the race), and the arena must grow by exactly the number of
     distinct sets. Vertices start high so nothing is interned already. *)
  let base = 100_000 in
  let sets =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b -> [ [ base + a ]; [ base + a; base + 50 + b ]; [ base + a; base + 50 + b; base + 100 ] ])
          [ 0; 1; 2; 3; 4 ])
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  let distinct = List.sort_uniq compare sets in
  let before = Simplex.arena_size () in
  let work () = List.map (fun vs -> (vs, Simplex.id (Simplex.of_list vs))) sets in
  let spawned = Array.init 3 (fun _ -> Domain.spawn work) in
  let mine = work () in
  let others = Array.to_list (Array.map Domain.join spawned) in
  List.iter
    (fun theirs -> checkb "same id on every domain" true (theirs = mine))
    others;
  checki "arena grew by the distinct sets exactly"
    (List.length distinct)
    (Simplex.arena_size () - before);
  (* ids are stable: re-interning afterwards changes nothing *)
  checkb "re-intern is a lookup" true (work () = mine);
  checki "no further growth" (List.length distinct) (Simplex.arena_size () - before);
  (* id density: the publication arena allocates ids under one lock, so the
     fresh simplices occupy exactly the contiguous block the arena grew by —
     no id is ever skipped or minted twice, whatever the interleaving *)
  let fresh_ids =
    List.sort_uniq compare (List.map (fun vs -> Simplex.id (Simplex.of_list vs)) distinct)
  in
  checki "no duplicate ids across keys" (List.length distinct) (List.length fresh_ids);
  let lo = List.hd fresh_ids and hi = List.nth fresh_ids (List.length fresh_ids - 1) in
  checki "ids form a contiguous block" (hi - lo) (List.length fresh_ids - 1);
  checkb "ids stay below the arena size" true (hi < Simplex.arena_size ());
  (* every key maps to one id and every id to one key: interning the verts
     behind each fresh id returns that id *)
  checkb "key -> id -> key closes" true
    (List.for_all
       (fun vs ->
         let s = Simplex.of_list vs in
         Simplex.to_list s = List.sort_uniq compare vs
         && Simplex.id (Simplex.of_list (Simplex.to_list s)) = Simplex.id s)
       distinct)

(* ------------------------------------------------------------------ *)
(* Parallel solver == sequential solver                                 *)

let tasks_under_test =
  [
    ("consensus-2", fun () -> Wfc_tasks.Instances.binary_consensus ~procs:2);
    ("consensus-3", fun () -> Wfc_tasks.Instances.binary_consensus ~procs:3);
    ("set-consensus-3-2", fun () -> Wfc_tasks.Instances.set_consensus ~procs:3 ~k:2);
    ("renaming-2-3", fun () -> Wfc_tasks.Instances.adaptive_renaming ~procs:2 ~names:3);
    ("identity-3", fun () -> Wfc_tasks.Instances.id_task ~procs:3);
    ("approx-2-3", fun () -> Wfc_tasks.Instances.approximate_agreement ~procs:2 ~grid:3);
  ]

let decide_table verdict =
  match verdict with
  | Solvability.Solvable { map; _ } ->
    let scx = Chromatic.complex (Sds.complex map.Solvability.sds) in
    Some (List.map (fun v -> (v, map.Solvability.decide v)) (Complex.vertices scx))
  | _ -> None

let test_parallel_matches_sequential () =
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun level ->
          let seq = Solvability.solve_at ~domains:1 (mk ()) level in
          let par = Solvability.solve_at ~domains:4 (mk ()) level in
          Alcotest.(check string)
            (Printf.sprintf "%s level %d: same verdict" name level)
            (Solvability.verdict_name seq) (Solvability.verdict_name par);
          checkb
            (Printf.sprintf "%s level %d: same decision map" name level)
            true
            (decide_table seq = decide_table par);
          let s = Solvability.stats_of_verdict seq in
          let p = Solvability.stats_of_verdict par in
          (match seq with
          | Solvability.Unsolvable_at _ ->
            (* a refutation is exhaustive on both engines: cost merges exactly *)
            checki (name ^ ": nodes") s.Solvability.nodes p.Solvability.nodes;
            checki (name ^ ": backtracks") s.Solvability.backtracks p.Solvability.backtracks;
            checki (name ^ ": prunes") s.Solvability.prunes p.Solvability.prunes
          | _ -> ()))
        [ 0; 1 ])
    tasks_under_test

let qcheck_parallel_equiv =
  QCheck.Test.make ~count:30 ~name:"solve_at domains=1 = domains=4"
    QCheck.(pair (int_bound (List.length tasks_under_test - 1)) (int_bound 1))
    (fun (ti, level) ->
      let _, mk = List.nth tasks_under_test ti in
      let seq = Solvability.solve_at ~domains:1 (mk ()) level in
      let par = Solvability.solve_at ~domains:4 (mk ()) level in
      Solvability.verdict_name seq = Solvability.verdict_name par
      && decide_table seq = decide_table par)

(* Portfolio mode races whole searches under distinct variable orders, yet
   the published verdict and decision map must still be the sequential
   engine's: racer 0 is the canonical order, and diverse racers may only
   publish refutations, which are order-independent facts. Node tallies are
   deliberately NOT compared — they describe whichever racer won. *)
let qcheck_portfolio_equiv =
  QCheck.Test.make ~count:30 ~name:"portfolio = sequential (verdict + decide)"
    QCheck.(
      triple
        (int_bound (List.length tasks_under_test - 1))
        (int_bound 1) (int_range 1 4))
    (fun (ti, level, domains) ->
      let _, mk = List.nth tasks_under_test ti in
      let seq = Solvability.solve_at ~domains:1 (mk ()) level in
      let port = Solvability.solve_at ~opts:(Solvability.options ~mode:`Portfolio ()) ~domains (mk ()) level in
      Solvability.verdict_name seq = Solvability.verdict_name port
      && decide_table seq = decide_table port)

let test_portfolio_matches_sequential () =
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun level ->
          let seq = Solvability.solve_at ~domains:1 (mk ()) level in
          let port = Solvability.solve_at ~opts:(Solvability.options ~mode:`Portfolio ()) ~domains:4 (mk ()) level in
          Alcotest.(check string)
            (Printf.sprintf "%s level %d: same verdict" name level)
            (Solvability.verdict_name seq) (Solvability.verdict_name port);
          checkb
            (Printf.sprintf "%s level %d: same decision map" name level)
            true
            (decide_table seq = decide_table port))
        [ 0; 1 ])
    tasks_under_test

let test_portfolio_single_domain_is_sequential () =
  (* one racer = the canonical order alone: byte-for-byte the sequential
     engine, stats included — the single-core container guarantee *)
  let task = Wfc_tasks.Instances.binary_consensus ~procs:2 in
  let seq = Solvability.solve_at ~domains:1 task 1 in
  let port = Solvability.solve_at ~opts:(Solvability.options ~mode:`Portfolio ()) ~domains:1 task 1 in
  Alcotest.(check string) "same verdict" (Solvability.verdict_name seq)
    (Solvability.verdict_name port);
  let s = Solvability.stats_of_verdict seq and p = Solvability.stats_of_verdict port in
  checki "same nodes" s.Solvability.nodes p.Solvability.nodes;
  checki "same backtracks" s.Solvability.backtracks p.Solvability.backtracks;
  checki "same prunes" s.Solvability.prunes p.Solvability.prunes

(* ------------------------------------------------------------------ *)
(* Cumulative budget across levels                                      *)

let test_cumulative_budget () =
  let task = Wfc_tasks.Instances.set_consensus ~procs:3 ~k:2 in
  let budget = 40 in
  let max_level = 2 in
  match Solvability.solve ~opts:(Solvability.options ~budget ()) ~max_level task with
  | Solvability.Exhausted { level; stats } ->
    (* the sweep shares one node budget: each level is granted only the
       remainder, so total nodes stay within budget + one root pre-count
       per level tried. (Budget ticks also cover failed candidate tries,
       so nodes can legitimately land below the budget.) *)
    checkb "sweep stays within the cumulative budget" true
      (stats.Solvability.nodes <= budget + max_level + 1);
    checkb "level 0 completed inside the shared budget" true (level >= 1);
    checkb "searched at all" true (stats.Solvability.nodes > 0)
  | v -> Alcotest.failf "expected Exhausted, got %s" (Solvability.verdict_name v)

let test_budget_zero_exhausts () =
  match Solvability.solve ~opts:(Solvability.options ~budget:0 ()) ~max_level:3 (Wfc_tasks.Instances.id_task ~procs:2) with
  | Solvability.Exhausted { level; stats } ->
    checki "stopped before level 0" 0 level;
    checki "no nodes granted" 0 stats.Solvability.nodes
  | v -> Alcotest.failf "expected Exhausted, got %s" (Solvability.verdict_name v)

(* ------------------------------------------------------------------ *)
(* Parallel subdivision == sequential subdivision                       *)

let test_parallel_sds () =
  let facet_lists s =
    List.map Simplex.to_list (Complex.facets (Chromatic.complex (Sds.complex s)))
  in
  List.iter
    (fun (dim, levels) ->
      Sds.clear_cache ();
      Wfc_par.set_domains 1;
      let seq = facet_lists (Sds.standard ~dim ~levels) in
      Sds.clear_cache ();
      Wfc_par.set_domains 4;
      let par = facet_lists (Sds.standard ~dim ~levels) in
      Wfc_par.set_domains 1;
      Sds.clear_cache ();
      checkb
        (Printf.sprintf "SDS^%d(s^%d) facets identical" levels dim)
        true (seq = par))
    [ (1, 3); (2, 2) ]

(* ------------------------------------------------------------------ *)
(* Threads sharing the process-global solver caches                    *)

(* The daemon's solver threads share the Sds memo and the Solvability
   reducer caches. Four threads solving distinct cold questions over the
   same base complexes must each get exactly the verdict bytes of a
   sequential inline solve. *)
let test_threads_share_caches () =
  let wait_free = Wfc_tasks.Model.wait_free and k2 = Wfc_tasks.Model.k_set_affine ~k:2 in
  let consensus = Wfc_tasks.Instances.binary_consensus ~procs:3 in
  (* each solve spans several thread-switch ticks, so the threads interleave *)
  let questions =
    [|
      (consensus, wait_free, 2);
      (consensus, k2, 2);
      (Wfc_tasks.Instances.approximate_agreement ~procs:3 ~grid:4, wait_free, 2);
      (Wfc_tasks.Instances.adaptive_renaming ~procs:3 ~names:5, wait_free, 2);
    |]
  in
  let verdict_bytes (task, model, max_level) =
    let o, _ =
      Solvability.solve_cached ~opts:(Solvability.options ~model ()) ~domains:1 ~max_level task
    in
    Wfc_obs.Json.to_string
      (Wfc_storage.Record.verdict_json
         (Wfc_storage.Record.make ~task ~spec:"q" ~model:(Wfc_tasks.Model.to_string model)
            ~max_level ~budget:Solvability.default_budget o))
  in
  Sds.clear_cache ();
  let results = Array.make (Array.length questions) "" in
  let threads =
    Array.mapi
      (fun i q -> Thread.create (fun () -> results.(i) <- verdict_bytes q) ())
      questions
  in
  Array.iter Thread.join threads;
  Sds.clear_cache ();
  Array.iteri
    (fun i q ->
      Alcotest.(check string) (Printf.sprintf "question %d" i) (verdict_bytes q) results.(i))
    questions

(* The daemon's resolve memo hands one task value to every solver thread
   that asks about it. Four threads solve distinct (model, level)
   questions over one freshly built value — its complexes' face caches
   still unfilled, so the threads race to fill them — and each verdict
   must equal a sequential solve on a task built for it alone. *)
let test_threads_share_task_value () =
  let approx () = Wfc_tasks.Instances.approximate_agreement ~procs:3 ~grid:4 in
  let questions =
    [|
      (Wfc_tasks.Model.wait_free, 1);
      (Wfc_tasks.Model.wait_free, 2);
      (Wfc_tasks.Model.k_set_affine ~k:2, 2);
      (Wfc_tasks.Model.t_resilient ~t:1, 2);
    |]
  in
  let verdict_bytes task (model, max_level) =
    let o, _ =
      Solvability.solve_cached ~opts:(Solvability.options ~model ()) ~domains:1 ~max_level task
    in
    Wfc_obs.Json.to_string
      (Wfc_storage.Record.verdict_json
         (Wfc_storage.Record.make ~task ~spec:"q" ~model:(Wfc_tasks.Model.to_string model)
            ~max_level ~budget:Solvability.default_budget o))
  in
  Sds.clear_cache ();
  let shared = approx () in
  let results = Array.make (Array.length questions) "" in
  let threads =
    Array.mapi
      (fun i q -> Thread.create (fun () -> results.(i) <- verdict_bytes shared q) ())
      questions
  in
  Array.iter Thread.join threads;
  Sds.clear_cache ();
  Array.iteri
    (fun i q ->
      Alcotest.(check string) (Printf.sprintf "question %d" i) (verdict_bytes (approx ()) q)
        results.(i))
    questions

let () =
  Wfc_par.set_domains 1;
  Alcotest.run "wfc_par"
    [
      ( "primitives",
        [
          Alcotest.test_case "chan" `Quick test_chan;
          Alcotest.test_case "chan send_shared" `Quick test_chan_send_shared;
          Alcotest.test_case "deque" `Quick test_deque;
          Alcotest.test_case "pool run" `Quick test_pool_run;
          Alcotest.test_case "pool exceptions" `Quick test_pool_exceptions;
          Alcotest.test_case "run_jobs inline" `Quick test_run_jobs_inline;
          Alcotest.test_case "token" `Quick test_token;
          Alcotest.test_case "race" `Quick test_race;
        ] );
      ("arena", [ Alcotest.test_case "4-domain intern stress" `Quick test_arena_stress ]);
      ( "solver",
        [
          Alcotest.test_case "parallel = sequential" `Quick test_parallel_matches_sequential;
          QCheck_alcotest.to_alcotest qcheck_parallel_equiv;
          Alcotest.test_case "portfolio = sequential" `Quick test_portfolio_matches_sequential;
          QCheck_alcotest.to_alcotest qcheck_portfolio_equiv;
          Alcotest.test_case "portfolio, 1 domain = sequential engine" `Quick
            test_portfolio_single_domain_is_sequential;
          Alcotest.test_case "cumulative budget" `Quick test_cumulative_budget;
          Alcotest.test_case "budget 0 exhausts immediately" `Quick test_budget_zero_exhausts;
        ] );
      ("sds", [ Alcotest.test_case "parallel subdivision identical" `Quick test_parallel_sds ]);
      ( "threads",
        [
          Alcotest.test_case "4 threads, shared caches = sequential bytes" `Quick
            test_threads_share_caches;
          Alcotest.test_case "4 threads, one shared task value = sequential bytes" `Quick
            test_threads_share_task_value;
        ] );
    ]
