(* The benchmark of [wfc serve]. See perfbench/README.md.

     wfcbench.exe --wfc PATH --workload W --seed N --seconds S --trace 0|1
     wfcbench.exe oracle          regenerate perfbench/oracle.json
     wfcbench.exe validate-trace F

   A run starts the real daemon as a child process on a fresh store, once
   per cycle, and drives it from two closed-loop client threads, one fresh
   connection per query. It checks every answer against the oracle and
   against the first answer to the same question, and prints the
   end-to-end metrics ([--trace 0]) or the per-layer metrics ([--trace 1])
   as the last line of standard output. *)

module Wire = Wfc_serve.Wire
module Json = Wfc_obs.Json

let clients = 2

(* the solver threads of [wfc serve] under its default flags *)
let solvers = 2

let run_dir = "perfbench/_run"

(* ---- answers ---- *)

type sample = {
  qid : int;
  latency : float;  (** client-observed: connect to decoded response *)
  source : Wire.source;
  timing : Wire.timing;
  bytes : int;
}

(* What one phase of a cycle sent and got back. [stuck] is set when a
   reply timed out: the phase then sends nothing more. *)
type tally = {
  m : Mutex.t;
  mutable samples : sample list;
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : string list;
  mutable stuck : bool;
}

let tally () =
  { m = Mutex.create (); samples = []; attempted = 0; failed = 0; wrong = []; stuck = false }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Verdict bytes (provenance stripped) of the first answer to each
   question; every later answer must repeat them exactly. *)
let first_answer : (int, string) Hashtbl.t = Hashtbl.create 64

let first_m = Mutex.create ()

let check (oracle : Oracle.entry array) (x : Catalogue.question) (r : Wfc_storage.Record.record) =
  let o = r.Wfc_storage.Record.outcome in
  let e = oracle.(x.id) in
  if o.Wfc_core.Solvability.o_verdict <> e.Oracle.verdict || o.Wfc_core.Solvability.o_level <> e.Oracle.level
  then
    Error
      (Printf.sprintf "%s: got %s at L%d, oracle says %s at L%d" (Catalogue.name x)
         o.Wfc_core.Solvability.o_verdict o.Wfc_core.Solvability.o_level e.Oracle.verdict e.Oracle.level)
  else begin
    let bytes = Json.to_string (Wfc_storage.Record.verdict_json r) in
    Mutex.lock first_m;
    let same =
      match Hashtbl.find_opt first_answer x.id with
      | None ->
        Hashtbl.add first_answer x.id bytes;
        true
      | Some b -> b = bytes
    in
    Mutex.unlock first_m;
    if same then Ok () else Error (Catalogue.name x ^ ": answer differs from its first answer")
  end

let ask ~oracle ~socket tally (x : Catalogue.question) =
  let t0 = Unix.gettimeofday () in
  let resp =
    Daemon.request socket (Wire.Query { spec = Catalogue.spec x; req_id = None })
  in
  let latency = Unix.gettimeofday () -. t0 in
  let outcome =
    match resp with
    | Ok (Wire.Verdict { source; record; timing = Some timing; _ }, bytes) -> (
      match check oracle x record with
      | Ok () -> `Ok { qid = x.id; latency; source; timing; bytes }
      | Error e -> `Wrong e)
    | Ok (Wire.Verdict { timing = None; _ }, _) -> `Failed
    | Ok ((Wire.Shed | Wire.Failed _ | Wire.Pong _ | Wire.Metrics _ | Wire.Bye), _) -> `Failed
    | Error e when latency >= Daemon.reply_timeout_s -> `Stuck e
    | Error _ -> `Failed
  in
  locked tally (fun () ->
      tally.attempted <- tally.attempted + 1;
      match outcome with
      | `Ok s -> tally.samples <- s :: tally.samples
      | `Failed -> tally.failed <- tally.failed + 1
      | `Stuck e ->
        Printf.eprintf "%s: no reply within %.0f s (%s)\n%!" (Catalogue.name x)
          Daemon.reply_timeout_s e;
        tally.failed <- tally.failed + 1;
        tally.stuck <- true
      | `Wrong e ->
        tally.failed <- tally.failed + 1;
        tally.wrong <- e :: tally.wrong)

(* Closed-loop clients pulling from one shared stream until it ends, the
   deadline passes or the daemon is stuck. The two copies of a [Pair] are
   adjacent in the stream, so two clients take one each and send them
   together. *)
let drive ~oracle ~socket ?(clients = clients) ?deadline tally
    (next : unit -> Catalogue.item option) =
  let qm = Mutex.create () in
  let bm = Mutex.create () and bc = Condition.create () in
  let waiting = ref 0 and generation = ref 0 in
  let barrier () =
    Mutex.lock bm;
    let g = !generation in
    incr waiting;
    if !waiting = clients then begin
      waiting := 0;
      incr generation;
      Condition.broadcast bc
    end
    else
      while !generation = g do
        Condition.wait bc bm
      done;
    Mutex.unlock bm
  in
  let pull () =
    Mutex.lock qm;
    let it =
      match deadline with
      | _ when locked tally (fun () -> tally.stuck) -> None
      | Some d when Unix.gettimeofday () >= d -> None
      | _ -> next ()
    in
    Mutex.unlock qm;
    it
  in
  let worker () =
    let rec loop () =
      match pull () with
      | None -> ()
      | Some (Catalogue.Single id) ->
        ask ~oracle ~socket tally Catalogue.all.(id);
        loop ()
      | Some (Catalogue.Pair id) ->
        barrier ();
        ask ~oracle ~socket tally Catalogue.all.(id);
        loop ()
    in
    loop ()
  in
  let ts = List.init clients (fun _ -> Thread.create worker ()) in
  List.iter Thread.join ts

let of_list items =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
      rest := tl;
      Some x

(* ---- cycles ---- *)

type cycle = {
  stuck : bool;  (** a reply timed out; the cycle was cut short *)
  setup_s : float;
  measured_s : float;
  prime : tally;
  measured : tally;
  whole : Daemon.stats;  (** counter deltas over the daemon's life *)
  during : Daemon.stats;  (** counter deltas over the measured phase *)
  daemon_cpu_s : float;  (** over the measured phase *)
  client_cpu_s : float;
  peak_rss_mb : float;
}

let diff (a : Daemon.stats) (b : Daemon.stats) =
  {
    Daemon.counters = List.map (fun (k, v) -> (k, v - Daemon.counter a k)) b.Daemon.counters;
    histos =
      List.map
        (fun (k, (c, s)) ->
          let c0, s0 = Daemon.histo a k in
          (k, (c - c0, s -. s0)))
        b.Daemon.histos;
  }

let client_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let no_stats = { Daemon.counters = []; histos = [] }

(* Set-up asks its questions one at a time, in catalogue order, so the
   set-up time is the same sequence of solves and store puts every time. *)
let run_cycle ~wfc ~oracle ~workload ~index ~measure =
  let socket = Printf.sprintf "%s/%d.sock" run_dir index in
  let store = Printf.sprintf "%s/store-%d" run_dir index in
  let log = Printf.sprintf "%s/%s-daemon-%d.log" run_dir (Workload.name workload) index in
  let t0 = Unix.gettimeofday () in
  let d = Daemon.spawn ~wfc ~socket ~store ~log in
  Daemon.wait_ready d;
  let s0 = Daemon.stats d in
  let prime = tally () in
  drive ~oracle ~socket ~clients:1 prime
    (of_list (List.map (fun id -> Catalogue.Single id) (Workload.prime_ids workload)));
  let setup_s = Unix.gettimeofday () -. t0 in
  let measured = tally () in
  let cut ~measured_s =
    Daemon.kill d;
    {
      stuck = true;
      setup_s;
      measured_s;
      prime;
      measured;
      whole = no_stats;
      during = no_stats;
      daemon_cpu_s = 0.;
      client_cpu_s = 0.;
      peak_rss_mb = 0.;
    }
  in
  if prime.stuck then cut ~measured_s:0.
  else begin
    let s1 = Daemon.stats d in
    let cpu1 = Daemon.cpu_s d.Daemon.pid and ccpu1 = client_cpu () in
    let m0 = Unix.gettimeofday () in
    measure ~socket measured;
    let measured_s = Unix.gettimeofday () -. m0 in
    if measured.stuck then cut ~measured_s
    else begin
      let cpu2 = Daemon.cpu_s d.Daemon.pid and ccpu2 = client_cpu () in
      let s2 = Daemon.stats d in
      let peak_rss_mb = Daemon.peak_rss_mb d.Daemon.pid in
      Daemon.stop d;
      {
        stuck = false;
        setup_s;
        measured_s;
        prime;
        measured;
        whole = diff s0 s2;
        during = diff s1 s2;
        daemon_cpu_s = cpu2 -. cpu1;
        client_cpu_s = ccpu2 -. ccpu1;
        peak_rss_mb;
      }
    end
  end

let warm_cycles = 3

let min_samples = 200 (* nearest-rank p95 then has 10 samples beyond it *)

let hard_stop_s = 120.

(* Runs whole cycles: warm_hits splits [seconds] over [warm_cycles] fresh
   daemons; cold_solves and mixed repeat their fixed cycle until [seconds]
   of measured time and [min_samples] answers are in. *)
let run_cycles ~wfc ~oracle ~workload ~seed ~seconds =
  let st = Workload.rng workload seed in
  let started = Unix.gettimeofday () in
  let cycle index measure = run_cycle ~wfc ~oracle ~workload ~index ~measure in
  match workload with
  | Workload.Warm_hits ->
    let next = Catalogue.warm_stream st in
    let rec go i acc =
      if i = warm_cycles then List.rev acc
      else
        let c =
          cycle i (fun ~socket t ->
              let deadline = Unix.gettimeofday () +. (seconds /. float_of_int warm_cycles) in
              drive ~oracle ~socket ~deadline t (fun () -> Some (next ())))
        in
        if c.stuck then List.rev (c :: acc) else go (i + 1) (c :: acc)
    in
    go 0 []
  | Workload.Cold_solves | Workload.Mixed ->
    let items () =
      if workload = Workload.Cold_solves then Catalogue.cold_cycle st else Catalogue.mixed_cycle st
    in
    let rec go i acc measured n =
      let enough = measured >= seconds && n >= min_samples in
      if enough || (i > 0 && Unix.gettimeofday () -. started > hard_stop_s) then List.rev acc
      else
        let c = cycle i (fun ~socket t -> drive ~oracle ~socket t (of_list (items ()))) in
        if c.stuck then List.rev (c :: acc)
        else go (i + 1) (c :: acc) (measured +. c.measured_s) (n + List.length c.measured.samples)
    in
    go 0 [] 0. 0

(* ---- integrity: each workload stays what it claims to be ---- *)

let integrity workload cycles =
  let sum name = List.fold_left (fun a c -> a + Daemon.counter c.during name) 0 cycles in
  let asked = List.fold_left (fun a c -> a + c.measured.attempted) 0 cycles in
  let checks =
    match workload with
    | Workload.Warm_hits -> [ ("serve.misses = 0", sum "serve.misses" = 0) ]
    | Workload.Cold_solves ->
      [
        ("serve.hits = 0", sum "serve.hits" = 0);
        ("store puts = questions asked", sum "serve.store.puts" = asked);
      ]
    | Workload.Mixed ->
      [
        ("serve.hits > 0", sum "serve.hits" > 0);
        ("serve.misses > 0", sum "serve.misses" > 0);
        ("serve.coalesced >= 1", sum "serve.coalesced" >= 1);
      ]
  in
  List.filter_map (fun (name, ok) -> if ok then None else Some name) checks

(* ---- where p50 and p95 fall ---- *)

(* The class of a measured answer: store hits by how costly their task is
   to rebuild, computed answers by how costly their solve is. *)
let class_of workload s =
  let x = Catalogue.all.(s.qid) in
  match (workload, s.source) with
  | Workload.Warm_hits, _ -> Catalogue.warm_class_name x.warm
  | Workload.Mixed, Wire.From_store -> "hit"
  | _ -> Catalogue.cold_class_name x.cold

(* For a percentile: the class at its rank, the share of the samples within
   2% of the rank either side that share that class, and the relative
   latency change across that window (a plateau reads near 0, a cliff
   large). *)
let rank_margin workload p samples =
  let a = Array.of_list samples in
  Array.sort (fun x y -> compare x.latency y.latency) a;
  let n = Array.length a in
  let r = Stat.rank p n in
  let w = max 1 (n / 50) in
  let lo = max 0 (r - w) and hi = min (n - 1) (r + w) in
  let cls = class_of workload a.(r) in
  let same = ref 0 in
  for i = lo to hi do
    if class_of workload a.(i) = cls then incr same
  done;
  let open Json in
  Obj
    [
      ("class", String cls);
      ("class_share", Float (Stat.share !same (hi - lo + 1)));
      ("window_ranks", Int (hi - lo + 1));
      ("relative_change", Float ((a.(hi).latency -. a.(lo).latency) /. a.(r).latency));
    ]

(* ---- metrics ---- *)

let ms = 1e3

let end_to_end cycles samples =
  let measured_s = List.fold_left (fun a c -> a +. c.measured_s) 0. cycles in
  let lat = Stat.sorted (List.map (fun s -> s.latency) samples) in
  [
    ("setup_s", "s", Stat.median (List.map (fun c -> c.setup_s) cycles));
    ("latency_p50_ms", "ms", Stat.percentile_sorted 50. lat *. ms);
    ("latency_p95_ms", "ms", Stat.percentile_sorted 95. lat *. ms);
    ("throughput_qps", "1/s", float_of_int (List.length samples) /. measured_s);
    ("daemon_peak_rss_mb", "MB", Stat.median (List.map (fun c -> c.peak_rss_mb) cycles));
  ]

let or_zero x = if Float.is_nan x then 0. else x

(* [replay] holds the layer metrics of the traced replay. *)
let per_layer cycles samples ~all_samples ~replay =
  let during name = List.fold_left (fun a c -> a + Daemon.counter c.during name) 0 cycles in
  let whole name = List.fold_left (fun a c -> a + Daemon.counter c.whole name) 0 cycles in
  let per_cycle name = Stat.median (List.map (fun c -> float_of_int (Daemon.counter c.whole name)) cycles) in
  let stage_mean_us name =
    let c, s =
      List.fold_left
        (fun (c, s) cy ->
          let c', s' = Daemon.histo cy.during ("serve.stage." ^ name ^ ".seconds") in
          (c + c', s +. s'))
        (0, 0.) cycles
    in
    if c = 0 then 0. else s /. float_of_int c *. 1e6
  in
  let hit_share hits misses = Stat.share hits (hits + misses) in
  let p q xs = or_zero (Stat.percentile q xs) in
  let handler = List.map (fun s -> s.timing.Wire.total_s *. ms) samples in
  let outside = List.map (fun s -> (s.latency -. s.timing.Wire.total_s) *. ms) samples in
  let waited = List.filter (fun s -> s.source <> Wire.From_store) all_samples in
  let computed = List.filter (fun s -> s.source = Wire.Computed) all_samples in
  let solve = List.map (fun s -> s.timing.Wire.solve_s *. ms) computed in
  let measured_s = List.fold_left (fun a c -> a +. c.measured_s) 0. cycles in
  let busy =
    List.fold_left
      (fun a s -> if s.source = Wire.Computed then a +. s.timing.Wire.solve_s else a)
      0. samples
  in
  let answered = List.length samples in
  let daemon_cpu = List.fold_left (fun a c -> a +. c.daemon_cpu_s) 0. cycles in
  let client_cpu = List.fold_left (fun a c -> a +. c.client_cpu_s) 0. cycles in
  let t name = or_zero (List.assoc name replay) in
  [
    ("serve.handler_p50_ms", "ms", p 50. handler);
    ("serve.handler_p95_ms", "ms", p 95. handler);
    ("serve.outside_handler_p50_ms", "ms", p 50. outside);
    ("serve.outside_handler_p95_ms", "ms", p 95. outside);
    ("serve.queue_wait_p95_ms", "ms", p 95. (List.map (fun s -> s.timing.Wire.queue_wait_s *. ms) waited));
    ("serve.admission_mean_us", "us", stage_mean_us "admission");
    ("serve.decode_mean_us", "us", stage_mean_us "decode");
    ("serve.encode_mean_us", "us", stage_mean_us "encode");
    ("serve.hits", "count", float_of_int (during "serve.hits"));
    ("serve.misses", "count", float_of_int (during "serve.misses"));
    ("serve.coalesced", "count", float_of_int (during "serve.coalesced"));
    ("serve.shed", "count", float_of_int (during "serve.shed"));
    ("serve.errors", "count", float_of_int (during "serve.errors"));
    ("serve.response_bytes_mean", "bytes", or_zero (Stat.mean (List.map (fun s -> float_of_int s.bytes) samples)));
    ("tasks.resolve_p50_us", "us", t "tasks.resolve_p50_us");
    ("tasks.digest_p50_us", "us", t "tasks.digest_p50_us");
    ("tasks.canonical_json_p50_us", "us", t "tasks.canonical_json_p50_us");
    ("storage.find_hit_us", "us", t "storage.find_hit_us");
    ("storage.find_miss_us", "us", t "storage.find_miss_us");
    ("storage.put_ms", "ms", t "storage.put_ms");
    ("storage.cache_hit_share", "share", hit_share (during "storage.cache.hit") (during "storage.cache.miss"));
    ("storage.bytes_per_record", "bytes", t "storage.bytes_per_record");
    ("topology.sds_build_ms", "ms", t "topology.sds_build_ms");
    ("topology.sds_memo_hit_share", "share", hit_share (whole "sds.memo.hits") (whole "sds.memo.misses"));
    ("topology.skeleton_hits", "count", per_cycle "sds.skeleton.hits");
    ("topology.carrier_hit_share", "share", hit_share (whole "subdiv.carrier.hits") (whole "subdiv.carrier.misses"));
    ("core.solve_p50_ms", "ms", p 50. solve);
    ("core.solve_p95_ms", "ms", p 95. solve);
    ("core.nodes", "count", per_cycle "solvability.nodes");
    ("core.backtracks", "count", per_cycle "solvability.backtracks");
    ("core.symmetry_pruned", "count", per_cycle "solvability.symmetry.pruned");
    ("core.solver_busy_share", "share", busy /. (measured_s *. float_of_int solvers));
    ("par.jobs", "count", per_cycle "par.jobs");
    ("par.steals", "count", per_cycle "par.steals");
    ("proc.daemon_cpu_ms_per_query", "ms", if answered = 0 then 0. else daemon_cpu *. ms /. float_of_int answered);
    ("proc.client_cpu_share", "share", client_cpu /. measured_s);
    ("obs.trace_overhead_share", "share", t "obs.trace_overhead_share");
    ("obs.unaccounted_share", "share", t "obs.unaccounted_share");
  ]

(* ---- the traced replay ---- *)

let replay ~workload ~seed =
  let dir = Printf.sprintf "%s/%s-replay-store" run_dir (Workload.name workload) in
  Daemon.rm_rf dir;
  let metrics =
    Replay.run ~workload ~seed ~dir
      ~perfetto_out:(Printf.sprintf "%s/%s.perfetto.json" run_dir (Workload.name workload))
  in
  Daemon.rm_rf dir;
  metrics

(* ---- output ---- *)

(* All the digits a float holds; a metric without samples (a run cut
   short) reads 0, since JSON has no NaN. *)
let number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed m

let bench ~wfc ~workload ~seed ~seconds ~trace =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oracle = Oracle.load () in
  let cycles = run_cycles ~wfc ~oracle ~workload ~seed ~seconds in
  let samples = List.concat_map (fun c -> c.measured.samples) cycles in
  let all_samples = List.concat_map (fun c -> c.prime.samples @ c.measured.samples) cycles in
  let tallies = List.concat_map (fun c -> [ c.prime; c.measured ]) cycles in
  let attempted = List.fold_left (fun a t -> a + t.attempted) 0 tallies in
  let failed = List.fold_left (fun a t -> a + t.failed) 0 tallies in
  let wrong = List.concat_map (fun t -> t.wrong) tallies in
  let stuck = List.exists (fun c -> c.stuck) cycles in
  let broken = (if stuck then [ "the daemon stopped answering" ] else []) @ integrity workload cycles in
  List.iter (fun e -> Printf.eprintf "wrong answer: %s\n" e) wrong;
  List.iter (fun e -> Printf.eprintf "integrity check failed: %s\n" e) broken;
  let metrics =
    if trace then
      per_layer cycles samples ~all_samples ~replay:(replay ~workload ~seed)
    else end_to_end cycles samples
  in
  let correct = wrong = [] && broken = [] && failed = 0 && samples <> [] in
  let machine = Json.Obj (Wfc_obs.Report.machine_facts ()) in
  let report =
    let open Json in
    Obj
      [
        ("workload", String (Workload.name workload));
        ("seed", Int seed);
        ("seconds", Float seconds);
        ("trace", Bool trace);
        ("machine", machine);
        ("catalogue_size", Int Catalogue.size);
        ("cycles", Int (List.length cycles));
        ( "per_cycle",
          Arr
            (List.map
               (fun c ->
                 Obj
                   [
                     ("setup_s", Float c.setup_s);
                     ("measured_s", Float c.measured_s);
                     ("answers", Int (List.length c.measured.samples));
                     ("daemon_cpu_s", Float c.daemon_cpu_s);
                     ("peak_rss_mb", Float c.peak_rss_mb);
                   ])
               cycles) );
        ("samples", Int (List.length samples));
        ("p50_rank", rank_margin workload 50. samples);
        ("p95_rank", rank_margin workload 95. samples);
        ("integrity_failures", Arr (List.map (fun s -> String s) broken));
        ("wrong_answers", Int (List.length wrong));
        ( "answers",
          Arr
            (List.map
               (fun s ->
                 Arr
                   [
                     String (Catalogue.name Catalogue.all.(s.qid));
                     String (Wire.source_name s.source);
                     Float (s.latency *. ms);
                     Float (s.timing.Wire.total_s *. ms);
                     Float (s.timing.Wire.solve_s *. ms);
                   ])
               (List.sort (fun a b -> compare a.latency b.latency) samples)) );
        ("metrics", Obj (List.map (fun (k, u, v) -> (k, Obj [ ("value", Float v); ("unit", String u) ])) metrics));
      ]
  in
  let report_path = Printf.sprintf "%s/%s.report.json" run_dir (Workload.name workload) in
  Wfc_obs.Report.write_file report_path report;
  Printf.printf "%s\n"
    (Json.to_line (Json.Obj [ ("report", Json.String report_path); ("machine", machine) ]));
  Printf.printf "%s\n%!" (result_line ~correct ~attempted ~failed metrics);
  correct

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: wfcbench.exe --wfc PATH --workload warm_hits|cold_solves|mixed --seed N --seconds S --trace 0|1\n\
    \       wfcbench.exe oracle | validate-trace FILE";
  exit 2

let flags args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload () = match Workload.of_name (get "workload") with Some w -> w | None -> usage () in
  let bit k = match get k with "0" -> false | "1" -> true | _ -> usage () in
  (get, int, workload, bit)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             Daemon.kill_all ();
             exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  match List.tl (Array.to_list Sys.argv) with
  | [ "oracle" ] -> Oracle.generate ()
  | [ "validate-trace"; file ] -> (
    match Result.bind (Json.parse (Daemon.read_file file)) Wfc_obs.Trace_event.validate with
    | Ok () -> print_endline "ok"
    | Error e ->
      prerr_endline e;
      exit 1)
  | args ->
    let get, int, workload, bit = flags args in
    let seconds = int "seconds" in
    if seconds < 1 then usage ();
    let ok =
      Fun.protect ~finally:Daemon.kill_all (fun () ->
          bench ~wfc:(get "wfc") ~workload:(workload ()) ~seed:(int "seed")
            ~seconds:(float_of_int seconds) ~trace:(bit "trace"))
    in
    exit (if ok then 0 else 1)
