(* The traced replay: one workload's question stream answered in-process,
   sequentially, by calling each layer's public functions in the daemon's
   order — resolve, digest, store lookup, and on a miss the SDS build, the
   search and the store put, then the response encoding. Spans are recorded
   here, around those calls; nothing inside the libraries is instrumented.

   The replay runs in the benchmark process after the daemon cycles, which
   never touch the in-process memos, so it starts from cold memos. *)

open Wfc_core
module Json = Wfc_obs.Json

type span = {
  sid : int;
  parent : int;
  name : string;
  tag : string;
  req : int;
  t0 : float;
  t1 : float;
}

let spans = ref []

let stack = ref []

let next_sid = ref 1

let current_req = ref 0

(* [tag] classifies the call by its result (a store hit or miss). *)
let span ?(tag = fun _ -> "") name f =
  let sid = !next_sid in
  incr next_sid;
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  stack := sid :: !stack;
  let t0 = Unix.gettimeofday () in
  let close tag =
    let t1 = Unix.gettimeofday () in
    stack := List.tl !stack;
    spans := { sid; parent; name; tag; req = !current_req; t0; t1 } :: !spans
  in
  match f () with
  | v ->
    close (tag v);
    v
  | exception e ->
    close "raised";
    raise e

(* The recorder's own cost per span, timed on empty spans. Two identical
   replays differ by far more than the recorder costs (their CPU time
   varies by up to a quarter on a shared machine), so the overhead is this
   cost times the spans a replay records, not a difference of two runs. *)
let cost_per_span () =
  let n = 200_000 and saved = !spans in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    span "calibration" ignore
  done;
  let dt = Unix.gettimeofday () -. t0 in
  spans := saved;
  dt /. float_of_int n

(* ---- the stream each workload replays ---- *)

let replay_warm_queries = 1000

(* Question ids in the order the daemon run first asks them: the priming
   phase, then the first cycle's measured stream. A pair is asked twice in
   a row, so its second copy is a store hit here. *)
let stream workload seed =
  let st = Workload.rng workload seed in
  let ids items = List.map (fun (Catalogue.Single id | Catalogue.Pair id) -> id) items in
  Workload.prime_ids workload
  @
  match workload with
  | Workload.Warm_hits ->
    let next = Catalogue.warm_stream st in
    ids (List.init replay_warm_queries (fun _ -> next ()))
  | Workload.Cold_solves -> ids (Catalogue.cold_cycle st)
  | Workload.Mixed -> ids (Catalogue.mixed_cycle st)

(* ---- one request, in the daemon's order ---- *)

let record_bytes = ref []

let answer engine (oracle : Oracle.entry array) (x : Catalogue.question) =
  let task =
    span "tasks.resolve" (fun () ->
        Wfc_tasks.Instances.by_name ~name:x.task ~procs:x.procs ~param:x.param)
  in
  let digest = span "tasks.digest" (fun () -> Wfc_tasks.Task.digest task) in
  let budget = Solvability.default_budget in
  let find () =
    span "storage.find"
      ~tag:(function Some _ -> "hit" | None -> "miss")
      (fun () -> Wfc_storage.Engine.find engine ~digest ~model:x.model ~max_level:x.level ~budget)
  in
  let record, source =
    match find () with
    | Some r -> (r, Wfc_serve.Wire.From_store)
    | None ->
      let model =
        match Wfc_tasks.Model.of_string x.model with Ok m -> m | Error e -> failwith e
      in
      span "topology.sds_build" (fun () ->
          Wfc_topology.Sds.clear_cache ();
          ignore (Wfc_topology.Sds.iterate task.Wfc_tasks.Task.input oracle.(x.id).Oracle.level));
      let fresh outcome =
        Wfc_storage.Record.make ~task
          ~spec:(Wfc_serve.Wire.spec_to_string (Catalogue.spec x))
          ~model:x.model ~max_level:x.level ~budget outcome
      in
      let committed = ref None in
      let hook =
        {
          Solvability.lookup =
            (fun () -> Option.map (fun r -> r.Wfc_storage.Record.outcome) (find ()));
          commit =
            (fun outcome ->
              let r = fresh outcome in
              span "storage.put" (fun () -> Wfc_storage.Engine.put engine r);
              record_bytes :=
                String.length (Json.to_string (Wfc_storage.Record.record_to_json r))
                :: !record_bytes;
              committed := Some r);
        }
      in
      let outcome, _ =
        span "core.solve" (fun () ->
            Solvability.solve_cached
              ~opts:(Solvability.options ~budget ~model ~symmetry:true ~collapse:true ())
              ~max_level:x.level ~store:hook task)
      in
      ((match !committed with Some r -> r | None -> fresh outcome), Wfc_serve.Wire.Computed)
  in
  span "serve.encode" (fun () ->
      ignore
        (Json.to_string
           (Wfc_serve.Wire.response_to_json
              (Wfc_serve.Wire.Verdict { source; record; req_id = None; timing = None }))))

(* ---- metrics over the recorded spans ---- *)

let durations ?tag name =
  List.filter_map
    (fun s ->
      if s.name = name && (tag = None || tag = Some s.tag) then Some (s.t1 -. s.t0) else None)
    !spans

(* A span's self time: its duration minus its children's (the replay is
   single-threaded, so children never overlap). *)
let self_time all =
  let covered = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace covered s.parent
          (s.t1 -. s.t0 +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    all;
  fun s -> s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt covered s.sid)

let perfetto ~workload all =
  let origin = List.fold_left (fun m s -> min m s.t0) infinity all in
  let us t = int_of_float ((t -. origin) *. 1e6) in
  let self = self_time all in
  let ev s =
    Wfc_obs.Trace_event.complete ~cat:"perfbench" ~name:s.name ~pid:1 ~tid:1 ~ts:(us s.t0)
      ~dur:(max 1 (us s.t1 - us s.t0))
      ~args:
        ([
           ("req_id", Json.Int s.req);
           ("span_id", Json.Int s.sid);
           ("parent", Json.Int s.parent);
           ("self_us", Json.Int (int_of_float (self s *. 1e6)));
         ]
        @ if s.tag = "" then [] else [ ("result", Json.String s.tag) ])
      ()
  in
  Wfc_obs.Trace_event.to_json
    (Wfc_obs.Trace_event.process_name ~pid:1 ("perfbench replay " ^ Workload.name workload)
    :: Wfc_obs.Trace_event.thread_name ~pid:1 ~tid:1 "replay"
    :: List.rev_map ev all)

(* Replays the workload into the fresh store [dir], writes the Perfetto
   trace to [perfetto_out] and returns the layer metrics. *)
let run ~workload ~seed ~dir ~perfetto_out =
  let oracle = Oracle.load () in
  let engine = Wfc_storage.Engine.open_store dir in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i id ->
      let x = Catalogue.all.(id) in
      current_req := i + 1;
      span "serve.request" (fun () -> answer engine oracle x);
      (* canonical_json is the bulk of the digest; it is timed on its own,
         outside the request, so the request's layer split stays a
         partition *)
      let task = Wfc_tasks.Instances.by_name ~name:x.task ~procs:x.procs ~param:x.param in
      span "tasks.canonical_json" (fun () -> ignore (Wfc_tasks.Task.canonical_json task)))
    (stream workload seed);
  let wall = Unix.gettimeofday () -. t0 in
  let all = !spans in
  let recorder = cost_per_span () *. float_of_int (List.length all) in
  let self = self_time all in
  let requests = List.filter (fun s -> s.name = "serve.request") all in
  let sum f = List.fold_left (fun a s -> a +. f s) 0. requests in
  let req_total = sum (fun s -> s.t1 -. s.t0) in
  Wfc_obs.Report.write_file perfetto_out (perfetto ~workload all);
  let p50 ?tag name scale = Stat.percentile 50. (durations ?tag name) *. scale in
  [
    ("tasks.resolve_p50_us", p50 "tasks.resolve" 1e6);
    ("tasks.digest_p50_us", p50 "tasks.digest" 1e6);
    ("tasks.canonical_json_p50_us", p50 "tasks.canonical_json" 1e6);
    ("storage.find_hit_us", p50 ~tag:"hit" "storage.find" 1e6);
    ("storage.find_miss_us", p50 ~tag:"miss" "storage.find" 1e6);
    ("storage.put_ms", p50 "storage.put" 1e3);
    ("storage.bytes_per_record", Stat.mean (List.map float_of_int !record_bytes));
    ("topology.sds_build_ms", p50 "topology.sds_build" 1e3);
    ("obs.trace_overhead_share", recorder /. (wall -. recorder));
    ("obs.unaccounted_share", if req_total > 0. then sum self /. req_total else 0.);
  ]
