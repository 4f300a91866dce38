let min_bytes = 32 * 1024

(* The helper parks on [c] until a job is posted; the caller parks on
   the same condition until [pending] clears.  One job is in flight at a
   time: only the holder of [busy] posts. *)
type helper = {
  m : Mutex.t;
  c : Condition.t;
  mutable job : (unit -> unit) option;
  mutable pending : bool;
}

let busy = Atomic.make false

(* Read and written only by the holder of [busy]. *)
let helper : helper option ref = ref None

let handoff_count = Atomic.make 0
let handoffs () = Atomic.get handoff_count

let rec serve h =
  Mutex.lock h.m;
  while Option.is_none h.job do
    Condition.wait h.c h.m
  done;
  let job = Option.get h.job in
  h.job <- None;
  Mutex.unlock h.m;
  job ();
  Mutex.lock h.m;
  h.pending <- false;
  Condition.broadcast h.c;
  Mutex.unlock h.m;
  serve h

(* [None] when the runtime refuses another domain: the caller then runs
   both halves itself. *)
let get_helper () =
  match !helper with
  | Some _ as h -> h
  | None -> (
      let h = { m = Mutex.create (); c = Condition.create (); job = None; pending = false } in
      match Domain.spawn (fun () -> serve h) with
      | (_ : unit Domain.t) ->
          helper := Some h;
          Some h
      | exception Failure _ -> None)

let post h job =
  Mutex.lock h.m;
  h.job <- Some job;
  h.pending <- true;
  Condition.broadcast h.c;
  Mutex.unlock h.m

let join h =
  Mutex.lock h.m;
  while h.pending do
    Condition.wait h.c h.m
  done;
  Mutex.unlock h.m

let capture f = match f () with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ())

let serial f g =
  let a = f () in
  (a, g ())

let both ~bytes f g =
  if bytes < min_bytes || not (Atomic.compare_and_set busy false true) then serial f g
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set busy false)
      (fun () ->
        match get_helper () with
        | None -> serial f g
        | Some h -> (
            let a = ref None in
            Atomic.incr handoff_count;
            post h (fun () -> a := Some (capture f));
            let b = capture g in
            join h;
            match (Option.get !a, b) with
            | Ok a, Ok b -> (a, b)
            | Error (e, bt), _ | Ok _, Error (e, bt) -> Printexc.raise_with_backtrace e bt))
