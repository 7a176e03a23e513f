(* The coordinator/worker wire protocol: length-prefixed binary frames
   over pipes.  Layout (all integers big-endian):

     offset  size
     0       4     magic "DVZF"
     4       1     protocol version
     5       1     message kind tag
     6       4     payload length
     10      4     CRC-32 of the payload
     14      len   payload

   Payload fields are written with two primitives only — 8-byte signed
   integers and length-prefixed strings — so every message kind decodes
   with the same bounds-checked cursor.  The CRC plus the magic make a
   torn or corrupted pipe read a detected failure instead of garbage
   state: a reader that sees a bad frame reports a structured error and
   refuses to resync (the supervisor's answer to a corrupt stream is to
   kill and respawn the peer, never to guess). *)

let magic = "DVZF"
let version = 2
let header_len = 14

(* Big enough for any real assignment (plans are a few KB each), small
   enough that a corrupted length field cannot make the reader attempt a
   multi-gigabyte allocation. *)
let max_payload = 1 lsl 26

let m_frames =
  Dvz_obs.Metrics.counter Dvz_obs.Metrics.default
    ~help:"Fleet protocol frames successfully decoded"
    "dvz_fleet_frames_total"

type msg =
  | Hello of { h_clock_us : int }
  | Config of { c_payload : string }
  | Assign of { a_epoch : int; a_payload : string }
  | Outcome of { o_worker : int; o_epoch : int; o_iteration : int;
                 o_payload : string }
  | Telemetry of { t_incarnation : int; t_payload : string }
  | Shutdown

let kind_tag = function
  | Hello _ -> 1
  | Config _ -> 2
  | Assign _ -> 3
  | Outcome _ -> 4
  | Telemetry _ -> 5
  | Shutdown -> 6

(* Indexed by [kind_tag - 1]. *)
let kind_names =
  [| "hello"; "config"; "assign"; "outcome"; "telemetry"; "shutdown" |]

let max_tag = Array.length kind_names
let kind_name msg = kind_names.(kind_tag msg - 1)

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_kind of int
  | Oversized of int
  | Crc_mismatch
  | Bad_payload of string

let error_message = function
  | Bad_magic -> "frame does not start with the DVZF magic"
  | Bad_version v -> Printf.sprintf "protocol version %d unsupported" v
  | Bad_kind k -> Printf.sprintf "unknown message kind %d" k
  | Oversized n -> Printf.sprintf "frame payload of %d bytes exceeds cap" n
  | Crc_mismatch -> "frame payload fails its CRC"
  | Bad_payload what -> Printf.sprintf "malformed %s payload" what

(* --- payload primitives --------------------------------------------------- *)

let put_int buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int v);
  Buffer.add_bytes buf b

let put_str buf s =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length s));
  Buffer.add_bytes buf b;
  Buffer.add_string buf s

exception Short

type cursor = { c_data : string; mutable c_pos : int }

let take_int c =
  if c.c_pos + 8 > String.length c.c_data then raise Short;
  let v = Int64.to_int (String.get_int64_be c.c_data c.c_pos) in
  c.c_pos <- c.c_pos + 8;
  v

let take_str c =
  if c.c_pos + 4 > String.length c.c_data then raise Short;
  let len = Int32.to_int (String.get_int32_be c.c_data c.c_pos) in
  c.c_pos <- c.c_pos + 4;
  if len < 0 || c.c_pos + len > String.length c.c_data then raise Short;
  let s = String.sub c.c_data c.c_pos len in
  c.c_pos <- c.c_pos + len;
  s

(* --- encode --------------------------------------------------------------- *)

let payload_of_msg msg =
  let buf = Buffer.create 64 in
  (match msg with
  | Hello { h_clock_us } -> put_int buf h_clock_us
  | Config { c_payload } -> put_str buf c_payload
  | Assign { a_epoch; a_payload } ->
      put_int buf a_epoch;
      put_str buf a_payload
  | Outcome { o_worker; o_epoch; o_iteration; o_payload } ->
      put_int buf o_worker;
      put_int buf o_epoch;
      put_int buf o_iteration;
      put_str buf o_payload
  | Telemetry { t_incarnation; t_payload } ->
      put_int buf t_incarnation;
      put_str buf t_payload
  | Shutdown -> ());
  Buffer.contents buf

let crc32 = Dvz_resilience.Snapshot.crc32

let encode msg =
  let payload = payload_of_msg msg in
  let len = String.length payload in
  if len > max_payload then
    invalid_arg
      (Printf.sprintf "Proto.encode: %s payload of %d bytes exceeds cap"
         (kind_name msg) len);
  let head = Bytes.create header_len in
  Bytes.blit_string magic 0 head 0 4;
  Bytes.set head 4 (Char.chr version);
  Bytes.set head 5 (Char.chr (kind_tag msg));
  Bytes.set_int32_be head 6 (Int32.of_int len);
  Bytes.set_int32_be head 10 (Int32.of_int (crc32 payload));
  Bytes.unsafe_to_string head ^ payload

(* --- decode --------------------------------------------------------------- *)

let msg_of_payload tag payload =
  let c = { c_data = payload; c_pos = 0 } in
  let name = kind_names.(tag - 1) in
  match
    (match tag with
    | 1 -> Hello { h_clock_us = take_int c }
    | 2 -> Config { c_payload = take_str c }
    | 3 ->
        let a_epoch = take_int c in
        let a_payload = take_str c in
        Assign { a_epoch; a_payload }
    | 4 ->
        let o_worker = take_int c in
        let o_epoch = take_int c in
        let o_iteration = take_int c in
        let o_payload = take_str c in
        Outcome { o_worker; o_epoch; o_iteration; o_payload }
    | 5 ->
        let t_incarnation = take_int c in
        let t_payload = take_str c in
        Telemetry { t_incarnation; t_payload }
    | 6 -> Shutdown
    | _ -> assert false)
  with
  | msg ->
      (* Trailing bytes mean the sender and receiver disagree about the
         layout — corruption, not compatibility. *)
      if c.c_pos <> String.length payload then
        Error (Bad_payload name)
      else Ok msg
  | exception Short -> Error (Bad_payload name)

(* Incremental reassembly: [feed] appends whatever the pipe produced —
   one byte or forty frames — and [next] peels complete frames off the
   front.  Once a frame fails validation the reader latches the error:
   there is no trustworthy way to find the next frame boundary in a
   corrupt stream. *)
type reader = {
  mutable rd_pending : string;
  mutable rd_error : error option;
}

let reader () = { rd_pending = ""; rd_error = None }
let buffered r = String.length r.rd_pending

let feed r bytes off len =
  if r.rd_error = None && len > 0 then
    r.rd_pending <- r.rd_pending ^ Bytes.sub_string bytes off len

let feed_string r s = feed r (Bytes.unsafe_of_string s) 0 (String.length s)

let fail r e =
  r.rd_error <- Some e;
  r.rd_pending <- "";
  Error e

let next r =
  match r.rd_error with
  | Some e -> Error e
  | None ->
      let s = r.rd_pending in
      let have = String.length s in
      if have < header_len then Ok None
      else if String.sub s 0 4 <> magic then fail r Bad_magic
      else
        let v = Char.code s.[4] in
        if v <> version then fail r (Bad_version v)
        else
          let tag = Char.code s.[5] in
          if tag < 1 || tag > max_tag then fail r (Bad_kind tag)
          else
            let len = Int32.to_int (String.get_int32_be s 6) in
            if len < 0 || len > max_payload then fail r (Oversized len)
            else if have < header_len + len then Ok None
            else
              let payload = String.sub s header_len len in
              let crc = Int32.to_int (String.get_int32_be s 10) in
              if crc32 payload land 0xFFFFFFFF <> crc land 0xFFFFFFFF then
                fail r Crc_mismatch
              else (
                match msg_of_payload tag payload with
                | Error e -> fail r e
                | Ok msg ->
                    r.rd_pending <-
                      String.sub s (header_len + len)
                        (have - header_len - len);
                    Dvz_obs.Metrics.incr m_frames;
                    Ok (Some msg))
