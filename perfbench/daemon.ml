(* The real [wfc serve] binary as a child process, and the client side of
   its wire protocol as [wfc query] speaks it: one fresh connection per
   request. *)

module Wire = Wfc_serve.Wire
module Json = Wfc_obs.Json

type t = { pid : int; socket : string; store : string }

let live = ref []

(* The daemon runs with its default flags (2 solver threads, 1 domain), so
   no WFC_* setting of the caller's environment may reach it. *)
let clean_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.length kv >= 4 && String.sub kv 0 4 = "WFC_"))
       (Array.to_list (Unix.environment ())))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let spawn ~wfc ~socket ~store ~log =
  rm_rf store;
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env wfc
      [| wfc; "serve"; "--socket"; socket; "--store"; store |]
      (clean_env ()) Unix.stdin out out
  in
  Unix.close out;
  let d = { pid; socket; store } in
  live := d :: !live;
  d

(* ---- framing ---- *)

let really_read fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off < n then
      match Unix.read fd buf off (n - off) with
      | 0 -> failwith "connection closed mid-frame"
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0;
  Bytes.unsafe_to_string buf

(* No catalogue question takes a second to answer, even cold and
   contended; a reply this late means the daemon is stuck. *)
let reply_timeout_s = 15.

(* One request on a fresh connection: (decoded response, response frame
   bytes), or [Error] on a refused connection, a broken exchange or a reply
   that does not come within [reply_timeout_s]. *)
let request socket req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout_s;
        Unix.connect fd (Unix.ADDR_UNIX socket);
        Wire.write_frame fd (Wire.request_to_json req);
        let header = really_read fd 4 in
        let n = Int32.to_int (String.get_int32_be header 0) in
        if n < 0 || n > Wire.max_frame then Error "frame length out of bounds"
        else
          match Json.parse (really_read fd n) with
          | Error e -> Error e
          | Ok j -> Result.map (fun r -> (r, 4 + n)) (Wire.response_of_json j)
      with
      | Unix.Unix_error (e, f, _) -> Error (f ^ ": " ^ Unix.error_message e)
      | Failure e -> Error e)

let ping d = match request d.socket Wire.Ping with Ok (Wire.Pong _, _) -> true | _ -> false

(* Polls until the daemon answers a ping; [Failure] if it died or never
   came up. *)
let wait_ready d =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    if ping d then ()
    else
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | p, _ when p = d.pid ->
        live := List.filter (fun x -> x.pid <> d.pid) !live;
        failwith "wfc serve exited before answering a ping"
      | _ ->
        if Unix.gettimeofday () > deadline then failwith "wfc serve did not come up";
        Unix.sleepf 0.001;
        go ()
  in
  go ()

(* ---- the daemon's own counters, and /proc ---- *)

type stats = { counters : (string * int) list; histos : (string * (int * float)) list }

let stats d =
  match request d.socket Wire.Stats with
  | Ok (Wire.Metrics { metrics; _ }, _) ->
    let obj k = match Json.member k metrics with Some (Json.Obj l) -> l | _ -> [] in
    let num = function Some (Json.Int i) -> float_of_int i | Some (Json.Float f) -> f | _ -> 0. in
    {
      counters =
        List.filter_map (fun (k, v) -> match v with Json.Int i -> Some (k, i) | _ -> None) (obj "counters");
      histos =
        List.map
          (fun (k, h) ->
            (k, (int_of_float (num (Json.member "count" h)), num (Json.member "sum" h))))
          (obj "histograms");
    }
  | Ok _ -> failwith "unexpected response to stats"
  | Error e -> failwith ("stats: " ^ e)

let counter s name = Option.value ~default:0 (List.assoc_opt name s.counters)

let histo s name = Option.value ~default:(0, 0.) (List.assoc_opt name s.histos)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of a process, in seconds (USER_HZ = 100 on Linux). *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:") (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let reap d =
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  rm_rf d.store

let stop d =
  (match request d.socket Wire.Shutdown with
  | Ok (Wire.Bye, _) -> ()
  | _ -> Unix.kill d.pid Sys.sigkill);
  reap d

let kill d =
  Unix.kill d.pid Sys.sigkill;
  reap d

let kill_all () = List.iter (fun d -> try kill d with Unix.Unix_error _ -> ()) !live
