package bitmatrix

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The encoding of a Matrix, all integers little-endian: rows and cols as
// uint64, then per stack a form byte. A dense stack (formDense) follows
// with its cols×8 words. A sparse one (formSparse) follows with its column
// count k as uint32, its k columns as uint32, its k+1 offsets as uint32
// and its rows as uint16.
const (
	formSparse byte = 0
	formDense  byte = 1
)

// EncodedLen returns the length of m's encoding.
func (m *Matrix) EncodedLen() int {
	n := 16
	for s := range m.stacks {
		st := &m.stacks[s]
		n++
		if st.dense {
			n += len(st.words) * 8
		} else {
			n += 8 + len(st.col)*8 + len(st.row)*2 // count, first offset, then a column and an offset each
		}
	}
	return n
}

// AppendBinary appends m's encoding to buf and returns the result.
func (m *Matrix) AppendBinary(buf []byte) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, uint64(m.rows))
	buf = le.AppendUint64(buf, uint64(m.cols))
	for s := range m.stacks {
		st := &m.stacks[s]
		if st.dense {
			buf = append(buf, formDense)
			for _, w := range st.words {
				buf = le.AppendUint64(buf, w)
			}
			continue
		}
		buf = append(buf, formSparse)
		buf = le.AppendUint32(buf, uint32(len(st.col)))
		for _, c := range st.col {
			buf = le.AppendUint32(buf, c)
		}
		// The first offset is always 0; the empty stack has no off array.
		buf = le.AppendUint32(buf, 0)
		for k := range st.col {
			buf = le.AppendUint32(buf, st.off[k+1])
		}
		for _, r := range st.row {
			buf = le.AppendUint16(buf, r)
		}
	}
	return buf
}

var errShort = errors.New("bitmatrix: encoding truncated")

// Decode parses an encoding made by AppendBinary. Stacks keep their forms.
func Decode(buf []byte) (*Matrix, error) {
	le := binary.LittleEndian
	if len(buf) < 16 {
		return nil, errShort
	}
	rows64, cols64 := le.Uint64(buf), le.Uint64(buf[8:])
	if rows64 > 1<<40 || cols64 > 1<<32 {
		return nil, fmt.Errorf("bitmatrix: encoded dimensions %d×%d out of range", rows64, cols64)
	}
	rows, cols := int(rows64), int(cols64)
	buf = buf[16:]
	m := NewSparse(rows, cols)
	for s := range m.stacks {
		if len(buf) < 1 {
			return nil, errShort
		}
		form := buf[0]
		buf = buf[1:]
		var st stack
		var err error
		switch form {
		case formDense:
			st, buf, err = decodeDense(buf, cols)
		case formSparse:
			st, buf, err = decodeSparse(buf, cols, min(StackRows, rows-s*StackRows))
		default:
			err = fmt.Errorf("bitmatrix: unknown stack form %d", form)
		}
		if err != nil {
			return nil, err
		}
		if st.dense && !ghostRowsClear(st.words, rows-s*StackRows) {
			return nil, errors.New("bitmatrix: encoding sets a row past the matrix")
		}
		m.stacks[s] = st
	}
	if len(buf) != 0 {
		return nil, errors.New("bitmatrix: trailing bytes after encoding")
	}
	return m, nil
}

func decodeDense(buf []byte, cols int) (stack, []byte, error) {
	n := cols * WordsPerColumn
	if len(buf) < n*8 {
		return stack{}, nil, errShort
	}
	words := make([]uint64, n)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return stack{dense: true, words: words}, buf[n*8:], nil
}

// decodeSparse parses one sparse stack of a cols-column matrix whose stack
// holds the given number of rows, checking every invariant the kernels
// rely on: ascending columns in range, non-empty ascending row runs.
func decodeSparse(buf []byte, cols, rows int) (stack, []byte, error) {
	le := binary.LittleEndian
	if len(buf) < 4 {
		return stack{}, nil, errShort
	}
	k := int(le.Uint32(buf))
	buf = buf[4:]
	if k > cols || len(buf) < 8*k+4 {
		return stack{}, nil, errShort
	}
	st := stack{col: make([]uint32, k), off: make([]uint32, k+1)}
	for i := range st.col {
		st.col[i] = le.Uint32(buf[4*i:])
		if int64(st.col[i]) >= int64(cols) || (i > 0 && st.col[i] <= st.col[i-1]) {
			return stack{}, nil, errors.New("bitmatrix: sparse columns not ascending in range")
		}
	}
	buf = buf[4*k:]
	for i := range st.off {
		st.off[i] = le.Uint32(buf[4*i:])
	}
	buf = buf[4*(k+1):]
	n := int(st.off[k])
	if st.off[0] != 0 || n > k*StackRows || len(buf) < 2*n {
		return stack{}, nil, errors.New("bitmatrix: sparse offsets out of range")
	}
	st.row = make([]uint16, n)
	for i := range st.row {
		st.row[i] = le.Uint16(buf[2*i:])
	}
	for i := 0; i < k; i++ {
		if st.off[i+1] <= st.off[i] || int(st.off[i+1]) > n {
			return stack{}, nil, errors.New("bitmatrix: sparse offsets not ascending")
		}
		run := st.rowsAt(i)
		for j, r := range run {
			if int(r) >= rows || (j > 0 && r <= run[j-1]) {
				return stack{}, nil, errors.New("bitmatrix: sparse rows not ascending in range")
			}
		}
	}
	if k == 0 {
		st = stack{}
	}
	return st, buf[2*n:], nil
}

// ghostRowsClear reports whether a dense stack holding rows rows sets no
// bit at or past them.
func ghostRowsClear(words []uint64, rows int) bool {
	if rows >= StackRows {
		return true
	}
	for base := 0; base < len(words); base += WordsPerColumn {
		for w := 0; w < WordsPerColumn; w++ {
			lo := w * 64
			switch {
			case rows <= lo:
				if words[base+w] != 0 {
					return false
				}
			case rows < lo+64:
				if words[base+w]>>(rows-lo) != 0 {
					return false
				}
			}
		}
	}
	return true
}
