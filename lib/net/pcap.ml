let magic = 0xa1b23c4d
let linktype = 147 (* DLT_USER0 *)
let pseudo_header_bytes = 20
let snaplen = 0x40000

type sink = { oc : out_channel; scratch : Wire.Writer.t }

let flush_scratch s =
  Wire.Writer.output s.oc s.scratch;
  Wire.Writer.clear s.scratch

let open_sink path =
  let oc = open_out_bin path in
  let s = { oc; scratch = Wire.Writer.create ~capacity:1024 () } in
  let w = s.scratch in
  Wire.Writer.u32 w magic;
  Wire.Writer.u16 w 2 (* version major *);
  Wire.Writer.u16 w 4 (* version minor *);
  Wire.Writer.u32 w 0 (* thiszone *);
  Wire.Writer.u32 w 0 (* sigfigs *);
  Wire.Writer.u32 w snaplen;
  Wire.Writer.u32 w linktype;
  flush_scratch s;
  s

let dst_int = function
  | Frame.Broadcast -> 0xffffffff
  | Frame.Unicast d -> Packets.Node_id.to_int d

(* The record header, pseudo-header and frame are built in the sink's
   scratch writer and leave in one write; nothing is allocated per
   record.  [Sim.Time.t] is an immediate int, so the timestamp splits
   with int arithmetic, and the u64 pseudo-header time is written as
   two u32 halves. *)
let write s ~time frame =
  let len = pseudo_header_bytes + Frame.encoded_length frame in
  let ns = (time : Sim.Time.t :> int) in
  let w = s.scratch in
  Wire.Writer.u32 w (ns / 1_000_000_000);
  Wire.Writer.u32 w (ns mod 1_000_000_000);
  Wire.Writer.u32 w len (* incl_len *);
  Wire.Writer.u32 w len (* orig_len *);
  Wire.Writer.u32 w (ns asr 32);
  Wire.Writer.u32 w ns;
  Wire.Writer.u32 w (Packets.Node_id.to_int frame.Frame.src);
  Wire.Writer.u32 w (dst_int frame.Frame.dst);
  Wire.Writer.u8 w (Frame.family frame);
  Wire.Writer.u8 w 0;
  Wire.Writer.u16 w 0;
  Frame.encode_into w frame;
  flush_scratch s

let close s = close_out s.oc

type record = {
  r_time : Sim.Time.t;
  r_src : Packets.Node_id.t;
  r_dst : Frame.dst;
  r_family : int;
  r_len : int;
  r_frame : (Frame.t, Wire.error) result;
}

let is_pcap_file path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      let head = really_input_string ic 4 in
      close_in ic;
      String.length head = 4
      && Char.code head.[0] = 0xa1
      && Char.code head.[1] = 0xb2
      && Char.code head.[2] = 0x3c
      && Char.code head.[3] = 0x4d
  | exception End_of_file -> false

let ( let* ) = Result.bind

let str_error where = function
  | Ok v -> Ok v
  | Error (e : Wire.error) ->
      Error (Printf.sprintf "%s: %s" where (Wire.error_to_string e))

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents ->
      let buf = Bytes.unsafe_of_string contents in
      let r = Wire.Reader.of_bytes buf in
      let* m = str_error "global header" (Wire.Reader.u32 r) in
      let* () = if m = magic then Ok () else Error "global header: bad magic" in
      let* _vmaj = str_error "global header" (Wire.Reader.u16 r) in
      let* _vmin = str_error "global header" (Wire.Reader.u16 r) in
      let* _zone = str_error "global header" (Wire.Reader.u32 r) in
      let* _sig = str_error "global header" (Wire.Reader.u32 r) in
      let* _snap = str_error "global header" (Wire.Reader.u32 r) in
      let* lt = str_error "global header" (Wire.Reader.u32 r) in
      let* () =
        if lt = linktype then Ok () else Error "global header: wrong linktype"
      in
      let rec records acc =
        if Wire.Reader.remaining r = 0 then Ok (List.rev acc)
        else
          let* ts_sec = str_error "record header" (Wire.Reader.u32 r) in
          let* ts_nsec = str_error "record header" (Wire.Reader.u32 r) in
          let* incl_len = str_error "record header" (Wire.Reader.u32 r) in
          let* orig_len = str_error "record header" (Wire.Reader.u32 r) in
          if incl_len <> orig_len then Error "record: truncated capture"
          else if incl_len < pseudo_header_bytes + Wire.Mac.ack_bytes then
            Error "record: implausibly short packet"
          else if Wire.Reader.remaining r < incl_len then
            Error "record: packet data past end of file"
          else
            let* ns64 = str_error "pseudo-header" (Wire.Reader.u64 r) in
            let ns = Int64.to_int ns64 in
            let* () =
              if
                ns >= 0
                && Int64.div ns64 1_000_000_000L = Int64.of_int ts_sec
                && Int64.rem ns64 1_000_000_000L = Int64.of_int ts_nsec
              then Ok ()
              else Error "pseudo-header: timestamp disagrees with record header"
            in
            let* src = str_error "pseudo-header" (Wire.Reader.u32 r) in
            let* dst = str_error "pseudo-header" (Wire.Reader.u32 r) in
            let* family = str_error "pseudo-header" (Wire.Reader.u8 r) in
            let* pad1 = str_error "pseudo-header" (Wire.Reader.u8 r) in
            let* pad2 = str_error "pseudo-header" (Wire.Reader.u16 r) in
            let* () =
              if pad1 = 0 && pad2 = 0 then Ok ()
              else Error "pseudo-header: nonzero padding"
            in
            let flen = incl_len - pseudo_header_bytes in
            let start = Wire.Reader.pos r in
            let* () = str_error "packet data" (Wire.Reader.skip r flen) in
            let frame_bytes = Bytes.sub buf start flen in
            let r_src = Packets.Node_id.of_int src in
            let r_dst =
              if dst = 0xffffffff then Frame.Broadcast
              else Frame.Unicast (Packets.Node_id.of_int dst)
            in
            let r_frame =
              match Frame.decode ~family ~ack_src:r_src frame_bytes with
              | Error _ as e -> e
              | Ok f ->
                  if
                    Packets.Node_id.equal f.Frame.src r_src
                    && Frame.dst_equal f.Frame.dst r_dst
                  then Ok f
                  else
                    Error
                      {
                        Wire.offset = 0;
                        reason = "frame addresses disagree with pseudo-header";
                      }
            in
            records
              ({
                 r_time = Sim.Time.unsafe_of_ns ns;
                 r_src;
                 r_dst;
                 r_family = family;
                 r_len = flen;
                 r_frame;
               }
              :: acc)
      in
      records []

let class_counts records =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun rec_ ->
      let cls =
        match rec_.r_frame with
        | Ok f -> Frame.class_name f
        | Error _ -> "UNDECODABLE"
      in
      let count, bytes =
        match Hashtbl.find_opt tbl cls with Some c -> c | None -> (0, 0)
      in
      Hashtbl.replace tbl cls (count + 1, bytes + rec_.r_len))
    records;
  Hashtbl.fold (fun cls c acc -> (cls, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
