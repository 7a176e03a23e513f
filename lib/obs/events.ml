type ring = {
  rg_lines : string array;  (* circular; slot i mod cap *)
  mutable rg_total : int;   (* lines ever written *)
}

type target =
  | Null
  | Buf of Buffer.t
  | Chan of out_channel
  | Ring of ring
  | Tee of sink * sink

and sink = {
  target : target;
  context : (string * Json.t) list;
  mutex : Mutex.t;
}

let make target = { target; context = []; mutex = Mutex.create () }
let null = make Null
let to_buffer b = make (Buf b)
let to_channel c = make (Chan c)

let ring ?(cap = 1024) () =
  if cap < 1 then invalid_arg "Events.ring: cap must be positive";
  make (Ring { rg_lines = Array.make cap ""; rg_total = 0 })

let tee a b = make (Tee (a, b))

let with_context sink fields = { sink with context = sink.context @ fields }

let rec is_null sink =
  match sink.target with
  | Null -> true
  | Tee (a, b) -> is_null a && is_null b
  | Buf _ | Chan _ | Ring _ -> false

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* The line is rendered once (with the outermost sink's context) and
   then pushed through the tee fan-out; each leaf serialises under its
   own lock so concurrent emitters never interleave partial lines. *)
let rec write_line sink line =
  match sink.target with
  | Null -> ()
  | Tee (a, b) ->
      write_line a line;
      write_line b line
  | Buf _ | Chan _ | Ring _ ->
      locked sink.mutex (fun () ->
          match sink.target with
          | Buf b ->
              Buffer.add_string b line;
              Buffer.add_char b '\n'
          | Chan c ->
              output_string c line;
              output_char c '\n'
          | Ring r ->
              let cap = Array.length r.rg_lines in
              r.rg_lines.(r.rg_total mod cap) <- line;
              r.rg_total <- r.rg_total + 1
          | Null | Tee _ -> ())

let emit sink fields =
  if not (is_null sink) then
    write_line sink (Json.to_string (Json.Obj (fields @ sink.context)))

let rec recent sink n =
  match sink.target with
  | Ring r ->
      locked sink.mutex (fun () ->
          let cap = Array.length r.rg_lines in
          let avail = min r.rg_total cap in
          let take = max 0 (min n avail) in
          let rec go k acc =
            if k < 0 then acc
            else
              go (k - 1) (r.rg_lines.((r.rg_total - 1 - k) mod cap) :: acc)
          in
          List.rev (go (take - 1) []))
  | Tee (a, b) -> (
      match recent a n with [] -> recent b n | lines -> lines)
  | Null | Buf _ | Chan _ -> []

let rec flush sink =
  match sink.target with
  | Chan c -> Stdlib.flush c
  | Tee (a, b) ->
      flush a;
      flush b
  | Null | Buf _ | Ring _ -> ()
