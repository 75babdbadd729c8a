(* Byte-level RLE. Format: a sequence of chunks.
   - '\x00' len byte        : a run of [len] copies of [byte] (len >= 1)
   - '\x01' len b0 .. b(l-1): a literal stretch of [len] bytes (len >= 1)
   Lengths are single bytes in [1, 255]; longer runs/stretches split. *)

let run_marker = '\x00'
let lit_marker = '\x01'

(* The chunks of [b] in order: [run c len] for a run of [len] copies
   of [c], [lit b start len] for the literal stretch
   [b.[start .. start+len-1]]. A run needs at least 4 equal bytes. *)
let chunks b ~run ~lit =
  let n = Bytes.length b in
  let i = ref 0 in
  while !i < n do
    let c = Bytes.get b !i in
    let r = ref 1 in
    while !i + !r < n && !r < 255 && Bytes.get b (!i + !r) = c do
      incr r
    done;
    if !r >= 4 then begin
      run c !r;
      i := !i + !r
    end
    else begin
      (* Collect a literal stretch: advance until a run of >= 4 starts
         or we hit the 255-byte chunk limit. *)
      let start = !i in
      let stop = ref (!i + 1) in
      let continue = ref true in
      while !continue && !stop < n && !stop - start < 255 do
        let c' = Bytes.get b !stop in
        let r = ref 1 in
        while !stop + !r < n && !r < 4 && Bytes.get b (!stop + !r) = c' do
          incr r
        done;
        if !r >= 4 then continue := false else incr stop
      done;
      lit b start (!stop - start);
      i := !stop
    end
  done

let decode_into s a b buf =
  let i = ref a in
  while !i < b do
    if !i + 1 >= b then invalid_arg "Rle.decode_bytes: truncated chunk header";
    let marker = s.[!i] in
    let len = Char.code s.[!i + 1] in
    if len = 0 then invalid_arg "Rle.decode_bytes: zero-length chunk";
    if marker = run_marker then begin
      if !i + 2 >= b then invalid_arg "Rle.decode_bytes: truncated run";
      let c = s.[!i + 2] in
      for _ = 1 to len do
        Buffer.add_char buf c
      done;
      i := !i + 3
    end
    else if marker = lit_marker then begin
      if !i + 2 + len > b then invalid_arg "Rle.decode_bytes: truncated literal";
      Buffer.add_substring buf s (!i + 2) len;
      i := !i + 2 + len
    end
    else invalid_arg "Rle.decode_bytes: bad chunk marker"
  done
