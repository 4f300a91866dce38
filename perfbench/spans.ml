(* Wall-clock spans recorded by the benchmark around its calls into each
   layer.  Spans stay in memory and are written once, at exit.  Every
   span carries the id of the span that encloses it (-1 for a root) and
   the run id of the repetition it belongs to. *)

type span = { id : int; parent : int; run_id : string; name : string; start_ns : float; end_ns : float }

type t = { mutable spans : span list; mutable next_id : int; mutable open_ids : int list; mutable run_id : string }

let create () = { spans = []; next_id = 0; open_ids = []; run_id = "" }

let set_run t run_id = t.run_id <- run_id

(* [with_span (Some t) name f] times [f] as a child of the innermost open
   span; [None] is the untraced path and only calls [f]. *)
let with_span sp name f =
  match sp with
  | None -> f ()
  | Some t ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let parent = match t.open_ids with p :: _ -> p | [] -> -1 in
      t.open_ids <- id :: t.open_ids;
      let start_ns = Sbt_sim.Clock.now_ns () in
      let finish () =
        t.open_ids <- List.tl t.open_ids;
        t.spans <- { id; parent; run_id = t.run_id; name; start_ns; end_ns = Sbt_sim.Clock.now_ns () } :: t.spans
      in
      Fun.protect ~finally:finish f

(* Self time per span name in run [run_id], in ms: each span's duration
   minus the part covered by its direct children, summed by name. *)
let self_ms t ~run_id =
  let in_run = List.filter (fun (s : span) -> s.run_id = run_id) t.spans in
  let dur (s : span) = s.end_ns -. s.start_ns in
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace covered s.parent (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    in_run;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id) in
      Hashtbl.replace self s.name (own +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    in_run;
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt self name) /. 1e6

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"run_id\":%S,\"name\":%S,\"start_ns\":%.0f,\"end_ns\":%.0f}\n" s.id
        s.parent s.run_id s.name s.start_ns s.end_ns)
    (List.rev t.spans);
  close_out oc
