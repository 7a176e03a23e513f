(* In-memory span store for the traced run.

   Spans are recorded by the benchmark around its own calls into the
   libraries' public functions; every span carries the iteration id of
   the plan it belongs to (-1 for campaign- and batch-level spans).  Spans
   stay in memory while the campaign runs and are written out as JSONL
   when the benchmark ends. *)

let now = Unix.gettimeofday

type span = {
  sp_name : string;
  sp_iter : int;
  sp_lane : int;
  sp_t0 : float;
  sp_t1 : float;
}

type t = { mutable spans : span list }

let create () = { spans = [] }

let record t ?(iter = -1) ?(lane = 0) name t0 t1 =
  t.spans <-
    { sp_name = name; sp_iter = iter; sp_lane = lane; sp_t0 = t0; sp_t1 = t1 }
    :: t.spans

(* Runs [f] inside a span; returns its result and the span's seconds. *)
let timed t ~iter name f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  record t ~iter name t0 t1;
  (r, t1 -. t0)

let named t name =
  List.filter (fun s -> String.equal s.sp_name name) t.spans
  |> List.sort (fun a b -> compare a.sp_t0 b.sp_t0)

let durations t name = List.map (fun s -> s.sp_t1 -. s.sp_t0) (named t name)
let sum xs = List.fold_left ( +. ) 0.0 xs
let total t name = sum (durations t name)

let write_jsonl path t =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"iter\":%d,\"lane\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.sp_name s.sp_iter s.sp_lane s.sp_t0 s.sp_t1)
    (List.sort (fun a b -> compare a.sp_t0 b.sp_t0) t.spans);
  close_out oc
